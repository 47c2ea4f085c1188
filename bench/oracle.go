package main

import (
	"fmt"
	"hash/crc32"

	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// Kernel parameters of the two query classes, the same on every workload.
const (
	q1DateMax    = 700
	q1ExtraArith = 8
)

// colset indexes the two projections a scan can carry.
type colset int

const (
	colsQ6 colset = iota
	colsQ1
	numColsets
)

func (c colset) cols() storage.ColSet {
	if c == colsQ1 {
		return engine.Q1Cols()
	}
	return engine.Q6Cols()
}

// golden is one table's expected answers, built without the engine: per-chunk
// Q6 and Q1 results from the reference kernels over the generator, and, for
// workloads whose scans return receipts, the CRC-32 of every chunk's projected
// bytes read straight from the file.
type golden struct {
	tuples []int64
	q6     []exec.Q6Result
	q1     []exec.Q1Result
	crc    [numColsets][]uint32
}

func buildGolden(tf *engine.TableFile, receipts bool) (*golden, error) {
	table := tpch.LineitemTable(1)
	table.Rows = tf.Rows()
	gen := tpch.NewGenerator(table, tf.Seed())
	n := tf.NumChunks()
	g := &golden{
		tuples: make([]int64, n),
		q6:     make([]exec.Q6Result, n),
		q1:     make([]exec.Q1Result, n),
	}
	pred := exec.DefaultQ6()
	for c := 0; c < n; c++ {
		start := int64(c) * tf.TuplesPerChunk()
		g.tuples[c] = tf.Layout().ChunkTuples(c)
		g.q6[c] = exec.Q6Chunk(gen, start, g.tuples[c], pred)
		g.q1[c] = exec.Q1Chunk(gen, start, g.tuples[c], q1DateMax, q1ExtraArith)
	}
	if !receipts {
		return g, nil
	}
	buf := make([]byte, tf.ColStripeBytes(engine.ColComment))
	for cs := colset(0); cs < numColsets; cs++ {
		g.crc[cs] = make([]uint32, n)
		for c := 0; c < n; c++ {
			var crc uint32
			var err error
			cs.cols().Each(func(col int) {
				page := stripePage(tf, c, col)
				stripe := buf[:tf.PageBytes(page)]
				if e := tf.ReadPageRange(page, 1, stripe); e != nil && err == nil {
					err = e
				}
				crc = crc32.Update(crc, crc32.IEEETable, stripe[:g.tuples[c]*engine.ColWidth(col)])
			})
			if err != nil {
				return nil, fmt.Errorf("receipt for chunk %d: %w", c, err)
			}
			g.crc[cs][c] = crc
		}
	}
	return g, nil
}

// stripePage returns the page index of one (chunk, column) stripe.
func stripePage(tf *engine.TableFile, chunk, col int) int64 {
	if tf.Format() == engine.DSM {
		first, _ := tf.PartPages(chunk, col)
		return first
	}
	first, _ := tf.PartPages(chunk, -1)
	return first + int64(col)
}

// outcome is what one scan returned, gathered while it ran.
type outcome struct {
	plan plannedScan
	// seen is the set of delivered chunks (tables have 48, so a word holds
	// it); repeated counts chunks delivered twice or outside the range.
	seen      uint64
	delivered int
	repeated  int
	// badReceipts counts chunk receipts whose tuple count or CRC differed.
	badReceipts int
	// mayPrune: the scan carried predicates, so chunks with no matching tuple
	// may be missing.
	mayPrune bool
	q6       *exec.Q6Result
	q1       exec.Q1Result
}

// deliver records chunk c and reports whether it is new and inside the range.
func (o *outcome) deliver(c int) bool {
	bit := uint64(1) << uint(c)
	if c < o.plan.start || c >= o.plan.end || o.seen&bit != 0 {
		o.repeated++
		return false
	}
	o.seen |= bit
	o.delivered++
	return true
}

// receipt checks one chunk receipt against the golden.
func (g *golden) receipt(o *outcome, cs colset, c int, tuples int64, crc uint32) {
	if o.deliver(c) && (tuples != g.tuples[c] || crc != g.crc[cs][c]) {
		o.badReceipts++
	}
}

// check verifies a finished scan: every chunk of the range exactly once
// (a pruned chunk must hold no matching tuple), receipts intact, and the fold
// equal to the fold of the per-chunk goldens over the whole range, so a
// pruned Q6 sum must equal the unpruned one.
func (g *golden) check(o *outcome) error {
	if o.repeated > 0 {
		return fmt.Errorf("%d chunks delivered twice or outside [%d,%d)", o.repeated, o.plan.start, o.plan.end)
	}
	if o.badReceipts > 0 {
		return fmt.Errorf("%d chunk receipts differ from the file", o.badReceipts)
	}
	var want6 exec.Q6Result
	want1 := make(exec.Q1Result)
	for c := o.plan.start; c < o.plan.end; c++ {
		if o.seen&(uint64(1)<<uint(c)) == 0 && !(o.mayPrune && g.q6[c].Rows == 0) {
			return fmt.Errorf("chunk %d missing", c)
		}
		want6.Add(g.q6[c])
		if o.q1 != nil {
			want1.Merge(g.q1[c])
		}
	}
	if o.q6 != nil && *o.q6 != want6 {
		return fmt.Errorf("Q6 fold %+v, want %+v", *o.q6, want6)
	}
	if o.q1 != nil {
		if len(o.q1) != len(want1) {
			return fmt.Errorf("Q1 fold has %d groups, want %d", len(o.q1), len(want1))
		}
		for k, w := range want1 {
			if got := o.q1[k]; got == nil || *got != *w {
				return fmt.Errorf("Q1 group %q: got %+v, want %+v", k, got, *w)
			}
		}
	}
	return nil
}

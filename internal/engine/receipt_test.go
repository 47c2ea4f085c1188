// Receipt-sum tests: ChunkData.ColCRC is memoised on the part's frame for one
// residency. Whatever a frame's previous tenant left there must never be
// read back for the next one — across eviction, a load that fails and retries
// into the frame it already holds, and an aborted load whose frame goes back
// to the free list — and every value handed out equals a fresh hash of the
// delivered bytes.
package engine

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/iofault"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// checkColCRCs compares ColCRC with a fresh hash of the delivered bytes for
// every column of cols and returns how many sums it asked for.
func checkColCRCs(t *testing.T, who string, c int, cols storage.ColSet, d ChunkData) int64 {
	var asked int64
	cols.Each(func(col int) {
		asked++
		want := crc32.ChecksumIEEE(d.Col(col)[:d.Tuples()*ColWidth(col)])
		if got := d.ColCRC(col); got != want {
			t.Errorf("%s: chunk %d column %d: ColCRC = %#08x, the delivered bytes hash to %#08x", who, c, col, got, want)
		}
	})
	return asked
}

// TestFrameDrawClearsMemo is the allocator's half of the contract: a frame
// comes off the free list with every memo slot empty.
func TestFrameDrawClearsMemo(t *testing.T) {
	a := newFrameAlloc(nil)
	a.retain([]int64{64})
	f := a.get(64)
	for j := range f.crcs {
		f.crcs[j].Store(crcValid | uint64(j+1))
	}
	a.put(f)
	g := a.get(64)
	if g != f {
		t.Fatal("the free list did not hand the frame back")
	}
	for j := range g.crcs {
		if v := g.crcs[j].Load(); v != 0 {
			t.Errorf("slot %d = %#x after the draw, want empty", j, v)
		}
	}
}

// TestColCRCAcrossRecycledFrames scans every stored shape under the two-chunk
// minimum budget — nine chunks, the last one short, so every frame changes
// tenant many times — with concurrent scans of three projections (q6, q1 and
// all, the 32-byte comment column included) that share and race on the same
// parts. Every sum must equal a fresh hash, and the meter must account for
// every call, in TableStats and in the registry alike.
func TestColCRCAcrossRecycledFrames(t *testing.T) {
	const rows, tpc, rounds = 8_300, 1000, 3
	projections := []storage.ColSet{Q6Cols(), Q1Cols(), storage.AllCols(NumCols)}
	for _, shape := range storedShapes {
		t.Run(shape.name, func(t *testing.T) {
			tf := shape.create(t, rows, tpc, 71)
			if tf.NumChunks() < 8 || tf.Layout().ChunkTuples(tf.NumChunks()-1) == tpc {
				t.Fatalf("want >= 8 chunks and a short last one, have %d chunks", tf.NumChunks())
			}
			reg := obs.NewRegistry()
			srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 2 * tf.ChunkBytes(), Obs: reg}, tf)
			var asked atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < 2*len(projections); i++ {
				cols := projections[i%len(projections)]
				who := fmt.Sprintf("scan%d", i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						if _, err := srv.Scan(0, who, rangeSet(0, tf.NumChunks()), cols, func(c int, d ChunkData) {
							asked.Add(checkColCRCs(t, who, c, cols, d))
						}); err != nil {
							t.Errorf("%s: %v", who, err)
						}
					}
				}()
			}
			wg.Wait()
			st := srv.Stats()
			ts := st.Tables[0]
			if st.Pool.Evictions < 2*tf.NumChunks() {
				t.Errorf("only %d evictions: the frames were not recycled", st.Pool.Evictions)
			}
			if ts.ReceiptCRCsComputed+ts.ReceiptCRCsReused != asked.Load() || ts.ReceiptCRCsComputed == 0 {
				t.Errorf("meter: %d computed + %d reused, %d asked", ts.ReceiptCRCsComputed, ts.ReceiptCRCsReused, asked.Load())
			}
			// Each residency of a part is hashed at least once if anyone asks;
			// only racing first askers hash it again.
			if parts := int64(st.Pool.Misses); ts.ReceiptCRCsComputed > parts*NumCols {
				t.Errorf("%d sums computed over %d part residencies", ts.ReceiptCRCsComputed, parts)
			}
			m := scrapeMetrics(t, reg)
			for outcome, want := range map[string]int64{"computed": ts.ReceiptCRCsComputed, "reused": ts.ReceiptCRCsReused} {
				key := fmt.Sprintf(`coopscan_receipt_crcs_total{table=%q,outcome=%q}`, ts.Name, outcome)
				if got, ok := m[key]; !ok || int64(got) != want {
					t.Errorf("%s = %v (present %v), TableStats says %d", key, got, ok, want)
				}
			}
			t.Logf("%d computed, %d reused, %d loads", ts.ReceiptCRCsComputed, ts.ReceiptCRCsReused, st.Pool.Misses)
		})
	}
}

// TestColCRCSharedWhileResident pins the sharing itself where it is
// deterministic: a table that fits the buffer is hashed by the first scan and
// by nobody after it.
func TestColCRCSharedWhileResident(t *testing.T) {
	for _, shape := range storedShapes {
		t.Run(shape.name, func(t *testing.T) {
			tf := shape.create(t, 4_000, 1000, 72)
			srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
			cols := Q6Cols()
			perScan := int64(tf.NumChunks() * cols.Count())
			for i := 0; i < 3; i++ {
				if _, err := srv.Scan(0, "q6", rangeSet(0, tf.NumChunks()), cols, func(c int, d ChunkData) {
					checkColCRCs(t, "q6", c, cols, d)
				}); err != nil {
					t.Fatal(err)
				}
			}
			ts := srv.Stats().Tables[0]
			if ts.ReceiptCRCsComputed != perScan || ts.ReceiptCRCsReused != 2*perScan {
				t.Errorf("%d computed, %d reused; want %d and %d", ts.ReceiptCRCsComputed, ts.ReceiptCRCsReused, perScan, 2*perScan)
			}
		})
	}
}

// TestColCRCNotStaleAfterRetryAndAbort runs the two load paths that do not
// end in a plain landing through frames whose memos earlier tenants filled:
// every part's first read fails, so every load retries into the frame it
// drew, and one chunk never reads, so its loads abort and their frames are
// drawn again by the neighbours. Two passes, so the second draws only frames
// the first one left sums on.
func TestColCRCNotStaleAfterRetryAndAbort(t *testing.T) {
	for _, format := range []Format{NSM, DSM} {
		t.Run(format.String(), func(t *testing.T) {
			tf := newTestFileFormat(t, format, 8_300, 1000, 73)
			const badChunk = 4
			off, size := tf.PartFileRange(badChunk, partColFor(format, ColDiscount))
			inj := injectFaults(tf, iofault.Plan{
				TransientProb: 1, TransientMax: 1,
				BadRanges: []iofault.Range{{Off: off, Len: size}},
			}, 5)
			srv := newTestServer(t, ServerConfig{
				Policy: core.Relevance, BufferBytes: 2 * tf.ChunkBytes(),
				LoadRetries: 2, RetryBackoff: 50 * time.Microsecond,
			}, tf)
			cols := Q6Cols()
			n := tf.NumChunks()
			around := storage.NewRangeSet(storage.Range{End: badChunk}, storage.Range{Start: badChunk + 1, End: n})
			for pass := 0; pass < 2; pass++ {
				who := fmt.Sprintf("pass%d", pass)
				onChunk := func(c int, d ChunkData) { checkColCRCs(t, who, c, cols, d) }
				if _, err := srv.Scan(0, who+"-dead", rangeSet(0, n), cols, onChunk); !errors.Is(err, ErrChunkUnavailable) {
					t.Fatalf("scan over the dead chunk: err = %v, want ErrChunkUnavailable", err)
				}
				delivered := 0
				if _, err := srv.Scan(0, who, around, cols, func(c int, d ChunkData) {
					delivered++
					onChunk(c, d)
				}); err != nil {
					t.Fatal(err)
				}
				if delivered != n-1 {
					t.Fatalf("%d chunks delivered around the dead one, want %d", delivered, n-1)
				}
			}
			st := srv.Stats()
			if st.Faults.Retries == 0 || st.Faults.QuarantinedParts == 0 || inj.Stats().Transients == 0 {
				t.Errorf("the fault paths did not run: %+v", st.Faults)
			}
			waitLoadsDrained(t, srv)
			if err := srv.AuditTables(); err != nil {
				t.Error(err)
			}
		})
	}
}

package exec

import (
	"math"
	"math/rand"
	"testing"

	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// Kernel micro-benchmarks for iterating on Q6Kernel/Q1Kernel without the
// 20 s suite (`make bench-kernels`); a tool, not a record — the numbers that
// count are the suite's exec.q6_ns_per_tuple / exec.q1_ns_per_tuple. Every
// shape is benchRows rows handed to the kernel with its columns' true bounds,
// as the engine hands it a chunk. Two are a whole seven-year table squeezed
// into one chunk, so the bounds decide nothing: "clustered" is the generator's
// date-ordered data (the years spread over the 16 vectors, so most vectors
// qualify no date and exit after the first pass) and "shuffled" permutes the
// rows, so every vector has qualifying dates and runs every pass: the
// early-out cannot hide the all-pass cost. The other three are the chunks a
// date-ordered table really has, taken from the benchmark suite's 48-chunk
// geometry: "disjoint" lies wholly outside the predicate's dates (no column
// is read: ns/op does not depend on the rows), "inside" wholly inside them
// (no date pass) and "edge" across their upper end with most rows inside
// (nearly the work of "inside", plus the date pass). Q1's SLOW scans in the
// suite's dsmz-cpu workload are "inside" and "edge" chunks. Each shape runs
// the Go body and then, where the CPU has it, the AVX2 one ("inside/go",
// "inside/avx2"), so one run compares the two. BenchmarkQ1ArithRounds is
// Q1's price arithmetic and rounds alone, over one block.

const benchRows = 16 * vecRows

// benchColumns returns the given generator columns of a benchRows-row table,
// in row order or — shuffled — under one fixed row permutation.
func benchColumns(shuffled bool, cols ...int) [][]int64 {
	table := tpch.LineitemTable(1)
	table.Rows = benchRows
	out := genCols(tpch.NewGenerator(table, 1), 0, benchRows, cols...)
	if shuffled {
		perm := rand.New(rand.NewSource(1)).Perm(benchRows)
		for i, col := range out {
			p := make([]int64, benchRows)
			for j, row := range perm {
				p[j] = col[row]
			}
			out[i] = p
		}
	}
	return out
}

// benchChunk returns the given columns (the dates first) of one chunk of a
// 48 × benchRows table, picked by how its date bounds decide the inclusive
// date range [lo, hi]: the first chunk decided want — or, for Some, the
// chunk just after the last All one, which lies across the range's upper
// end with most of its rows inside it: the inside chunk's work plus the date
// pass, where a chunk further out is mostly the date pass alone. (The upper
// end, because a range open below, as Q1's date ≤ dateMax, has no lower one.)
func benchChunk(b *testing.B, want storage.Decided, lo, hi int64, cols ...int) [][]int64 {
	table := tpch.LineitemTable(1)
	table.Rows = 48 * benchRows
	g := tpch.NewGenerator(table, 1)
	pick := int64(-1)
	for start := int64(0); start < table.Rows; start += benchRows {
		switch d := zoneOf(genCols(g, start, benchRows, tpch.ColShipDate)[0]).Decide(lo, hi); {
		case want == storage.Some && d == storage.All:
			pick = start + benchRows
		case want != storage.Some && d == want && pick < 0:
			pick = start
		}
	}
	if pick >= 0 && pick < table.Rows {
		if c := genCols(g, pick, benchRows, cols...); zoneOf(c[0]).Decide(lo, hi) == want {
			return c
		}
	}
	b.Fatalf("no chunk's dates decide [%d, %d] as %d", lo, hi, want)
	return nil
}

var (
	sinkQ6     Q6Result
	sinkQ1     Q1Result
	sinkRounds int64
)

func reportPerTuple(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/tuple")
}

// benchShape returns the named shape's columns (the dates first); [lo, hi] is
// the inclusive date range the chunk shapes are picked against.
func benchShape(b *testing.B, name string, lo, hi int64, cols ...int) [][]int64 {
	switch name {
	case "clustered":
		return benchColumns(false, cols...)
	case "shuffled":
		return benchColumns(true, cols...)
	case "disjoint":
		return benchChunk(b, storage.None, lo, hi, cols...)
	case "inside":
		return benchChunk(b, storage.All, lo, hi, cols...)
	}
	return benchChunk(b, storage.Some, lo, hi, cols...) // "edge"
}

func BenchmarkQ6Kernel(b *testing.B) {
	pred := DefaultQ6()
	for _, shape := range []string{"clustered", "shuffled", "disjoint", "inside", "edge"} {
		b.Run(shape, func(b *testing.B) {
			c := benchShape(b, shape, pred.DateLo, pred.DateHi-1,
				tpch.ColShipDate, tpch.ColDiscount, tpch.ColQuantity, tpch.ColExtendedPrice)
			dateZ, discZ, qtyZ := zoneOf(c[0]), zoneOf(c[1]), zoneOf(c[2])
			for _, avx2 := range avx2Bodies(b) {
				b.Run(bodyName(avx2), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkQ6, _ = q6Bounded(avx2, [4][]int64(c), pred, dateZ, discZ, qtyZ)
					}
					reportPerTuple(b)
				})
			}
		})
	}
}

func BenchmarkQ1Kernel(b *testing.B) {
	const dateMax = 700
	for _, shape := range []string{"clustered", "shuffled", "disjoint", "inside", "edge"} {
		b.Run(shape, func(b *testing.B) {
			c := benchShape(b, shape, math.MinInt64, dateMax, tpch.ColShipDate, tpch.ColQuantity, tpch.ColExtendedPrice,
				tpch.ColDiscount, tpch.ColTax, tpch.ColReturnFlag, tpch.ColLineStatus)
			dateZ := zoneOf(c[0])
			for _, avx2 := range avx2Bodies(b) {
				b.Run(bodyName(avx2), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkQ1, _ = q1Bounded(avx2, [7][]int64(c), dateMax, 8, dateZ)
					}
					reportPerTuple(b)
				})
			}
		})
	}
}

// BenchmarkQ1ArithRounds runs the price arithmetic and the eight rounds the
// suite's SLOW scans ask for over one whole block of generator-like rows, as
// Q1Kernel does on an "inside" chunk, on each body.
func BenchmarkQ1ArithRounds(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	price, disc, tax, qty := make([]int64, q1Block), make([]int64, q1Block), make([]int64, q1Block), make([]int64, q1Block)
	for i := range price {
		qty[i] = 1 + rng.Int63n(50)
		price[i], disc[i], tax[i] = qty[i]*(90_000+rng.Int63n(110_000))/100, rng.Int63n(11), rng.Int63n(9)
	}
	var (
		gid    [q1Block]uint8
		dp, ch [q1Block]int64
	)
	for _, avx2 := range avx2Bodies(b) {
		b.Run(bodyName(avx2), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkRounds = q1ArithRoundsBody(avx2, gid[:], dp[:], ch[:], price, disc, tax, qty, 8)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/q1Block, "ns/row")
		})
	}
}

package exec

import (
	"math/rand"
	"testing"

	"coopscan/internal/tpch"
)

// Kernel micro-benchmarks for iterating on Q6Kernel/Q1Kernel without the
// 20 s suite (`make bench-kernels`); a tool, not a record — the numbers that
// count are the suite's exec.q6_ns_per_tuple / exec.q1_ns_per_tuple. Each
// kernel runs over a whole 16 384-row table in two shapes with the same rows:
// "clustered" is the generator's date-ordered data (the seven years spread
// over the 16 vectors, so most vectors qualify no date and exit after the
// first pass, as most chunks of a real table do) and "shuffled" permutes the
// rows, so every vector has qualifying dates and runs every pass: the
// early-out cannot hide the all-pass cost.

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

var (
	sinkQ6 Q6Result
	sinkQ1 Q1Result
)

func reportPerTuple(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/tuple")
}

func BenchmarkQ6Kernel(b *testing.B) {
	for _, shape := range []struct {
		name     string
		shuffled bool
	}{{"clustered", false}, {"shuffled", true}} {
		b.Run(shape.name, func(b *testing.B) {
			c := benchColumns(shape.shuffled, tpch.ColShipDate, tpch.ColDiscount, tpch.ColQuantity, tpch.ColExtendedPrice)
			pred := DefaultQ6()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkQ6 = Q6Kernel(c[0], c[1], c[2], c[3], pred)
			}
			reportPerTuple(b)
		})
	}
}

func BenchmarkQ1Kernel(b *testing.B) {
	for _, shape := range []struct {
		name     string
		shuffled bool
	}{{"clustered", false}, {"shuffled", true}} {
		b.Run(shape.name, func(b *testing.B) {
			c := benchColumns(shape.shuffled, tpch.ColShipDate, tpch.ColQuantity, tpch.ColExtendedPrice,
				tpch.ColDiscount, tpch.ColTax, tpch.ColReturnFlag, tpch.ColLineStatus)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkQ1 = Q1Kernel(c[0], c[1], c[2], c[3], c[4], c[5], c[6], 700, 8)
			}
			reportPerTuple(b)
		})
	}
}

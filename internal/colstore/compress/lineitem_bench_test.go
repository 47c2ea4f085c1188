package compress_test

// Codec micro-benchmarks over the columns the bench suite's compressed table
// stores (`make bench-kernels`): one 16 384-value stripe of each integer
// lineitem column from a 786 432-row table, under the scheme the table writer
// picks for it — the cheapest of PFOR / PFOR-DELTA / PDICT on the column's
// first chunk. A decode iteration is one DecodeIntsInto into a warm
// destination, Check and DecodeChecked back to back, as the suite's probe
// times it for compress.decode_ns_per_value.*. The live engine splits the
// two: the load runs Check on the stored buffer and a part's first reader
// runs DecodeChecked into its frame, so the "checked/" sub-benchmarks time
// DecodeChecked alone, what a first read pays. In ns/value; for iterating
// on the codec in seconds, not a record.

import (
	"fmt"
	"testing"

	"coopscan/internal/colstore/compress"
	"coopscan/internal/tpch"
)

const benchTableRows = 786_432

// benchStripes returns, per stored column, its scheme and chunk 3's values.
func benchStripes(tb testing.TB) (names []string, schemes []compress.Scheme, stripes [][]int64) {
	table := tpch.LineitemTable(1)
	table.Rows = benchTableRows
	gen := tpch.NewGenerator(table, 1)
	sample := make([]int64, stripeValues)
	for _, c := range lineitemCols {
		gen.Column(c.col, 0, sample)
		best, bestLen := compress.Raw, 8*len(sample)
		for _, s := range []compress.Scheme{compress.PFOR, compress.PFORDelta, compress.PDict} {
			buf, err := compress.EncodeInts(s, sample)
			if err != nil {
				tb.Fatal(err)
			}
			if len(buf) < bestLen {
				best, bestLen = s, len(buf)
			}
		}
		vals := make([]int64, stripeValues)
		gen.Column(c.col, 3*stripeValues, vals)
		names, schemes, stripes = append(names, c.name), append(schemes, best), append(stripes, vals)
	}
	return names, schemes, stripes
}

func BenchmarkDecodeLineitem(b *testing.B) {
	names, schemes, stripes := benchStripes(b)
	bufs := make([][]byte, len(stripes))
	dst := make([]int64, stripeValues)
	decode := func(b *testing.B, bufs [][]byte, checked bool) {
		b.SetBytes(int64(8 * stripeValues * len(bufs)))
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for _, buf := range bufs {
				if checked {
					compress.DecodeChecked(dst, buf)
				} else if _, err := compress.DecodeIntsInto(dst, buf); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stripeValues*len(bufs)), "ns/value")
	}
	for i, vals := range stripes {
		buf, err := compress.EncodeInts(schemes[i], vals)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := compress.Check(buf); err != nil {
			b.Fatal(err)
		}
		bufs[i] = buf
	}
	for _, prefix := range []string{"", "checked/"} {
		checked := prefix != ""
		for i, buf := range bufs {
			b.Run(fmt.Sprintf("%s%s/%v-w%d", prefix, names[i], schemes[i], buf[1]), func(b *testing.B) { decode(b, bufs[i:i+1], checked) })
		}
		b.Run(prefix+"all-ten", func(b *testing.B) { decode(b, bufs, checked) })
	}
}

func BenchmarkEncodeLineitem(b *testing.B) {
	names, schemes, stripes := benchStripes(b)
	for i, vals := range stripes {
		b.Run(fmt.Sprintf("%s/%v", names[i], schemes[i]), func(b *testing.B) {
			b.SetBytes(8 * stripeValues)
			for n := 0; n < b.N; n++ {
				if _, err := compress.EncodeInts(schemes[i], vals); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stripeValues), "ns/value")
		})
	}
}

// Package tpch generates synthetic TPC-H-like data for the reproduction's
// experiments and examples. The paper benchmarks against the TPC-H lineitem
// table (scale factor 10 for NSM, 40 for DSM); real dbgen data is not
// available offline, so this generator produces the lineitem and orders
// columns with the value distributions the FAST (Q6-like) and SLOW (Q1-like)
// queries depend on: shipdate correlated with row position, quantity and
// discount uniform, returnflag/linestatus low-cardinality.
//
// Generation is deterministic and chunk-addressable: any horizontal slice of
// a column can be produced on demand from (seed, row range) without
// materialising the whole table, which lets examples execute real queries
// over multi-gigabyte-scale tables in constant memory.
package tpch

import (
	"fmt"

	"coopscan/internal/colstore/compress"
	"coopscan/internal/storage"
)

// RowsPerSF is the lineitem row count per unit of scale factor (TPC-H's
// 6M rows at SF 1).
const RowsPerSF = 6_000_000

// Lineitem column indices, in schema order.
const (
	ColOrderKey = iota
	ColPartKey
	ColSuppKey
	ColLineNumber
	ColQuantity
	ColExtendedPrice
	ColDiscount
	ColTax
	ColReturnFlag
	ColLineStatus
	ColShipDate
	ColCommitDate
	ColReceiptDate
	ColShipInstruct
	ColShipMode
	ColComment
	NumLineitemCols
)

// Date encoding: days since 1992-01-01; the TPC-H date span is 7 years.
const (
	DateMin  = 0
	DateMax  = 7 * 365
	dateSpan = DateMax - DateMin
)

// LineitemTable returns lineitem metadata at the given scale factor with
// per-column compression schemes and densities mirroring the paper's
// Figure 9 (PFOR-DELTA orderkey at ~3 bits, PFOR partkey at ~21 bits,
// 2-bit dictionary flags, raw decimals, ~27-byte comments).
func LineitemTable(sf float64) *storage.Table {
	if sf <= 0 {
		panic(fmt.Sprintf("tpch: scale factor %v", sf))
	}
	cols := make([]storage.Column, NumLineitemCols)
	cols[ColOrderKey] = storage.Column{Name: "l_orderkey", Type: storage.Int64, Compression: compress.PFORDelta, BitsPerValue: 3}
	cols[ColPartKey] = storage.Column{Name: "l_partkey", Type: storage.Int64, Compression: compress.PFOR, BitsPerValue: 21}
	cols[ColSuppKey] = storage.Column{Name: "l_suppkey", Type: storage.Int64, Compression: compress.PFOR, BitsPerValue: 14}
	cols[ColLineNumber] = storage.Column{Name: "l_linenumber", Type: storage.Int64, Compression: compress.PDict, BitsPerValue: 3}
	cols[ColQuantity] = storage.Column{Name: "l_quantity", Type: storage.Int64, Compression: compress.PFOR, BitsPerValue: 6}
	cols[ColExtendedPrice] = storage.Column{Name: "l_extendedprice", Type: storage.Int64, Compression: compress.Raw, BitsPerValue: 64}
	cols[ColDiscount] = storage.Column{Name: "l_discount", Type: storage.Int64, Compression: compress.PDict, BitsPerValue: 4}
	cols[ColTax] = storage.Column{Name: "l_tax", Type: storage.Int64, Compression: compress.PDict, BitsPerValue: 4}
	cols[ColReturnFlag] = storage.Column{Name: "l_returnflag", Type: storage.Int64, Compression: compress.PDict, BitsPerValue: 2}
	cols[ColLineStatus] = storage.Column{Name: "l_linestatus", Type: storage.Int64, Compression: compress.PDict, BitsPerValue: 1}
	cols[ColShipDate] = storage.Column{Name: "l_shipdate", Type: storage.Int64, Compression: compress.PFORDelta, BitsPerValue: 7}
	cols[ColCommitDate] = storage.Column{Name: "l_commitdate", Type: storage.Int64, Compression: compress.PFORDelta, BitsPerValue: 7}
	cols[ColReceiptDate] = storage.Column{Name: "l_receiptdate", Type: storage.Int64, Compression: compress.PFORDelta, BitsPerValue: 7}
	cols[ColShipInstruct] = storage.Column{Name: "l_shipinstruct", Type: storage.String, Compression: compress.PDict, BitsPerValue: 2}
	cols[ColShipMode] = storage.Column{Name: "l_shipmode", Type: storage.String, Compression: compress.PDict, BitsPerValue: 3}
	cols[ColComment] = storage.Column{Name: "l_comment", Type: storage.String, Compression: compress.Raw, BitsPerValue: 27 * 8}
	return &storage.Table{
		Name:    fmt.Sprintf("lineitem-sf%g", sf),
		Columns: cols,
		Rows:    int64(sf * RowsPerSF),
	}
}

// Generator produces deterministic lineitem column slices.
type Generator struct {
	table *storage.Table
	seed  uint64
}

// NewGenerator creates a generator for the table with the given seed.
func NewGenerator(table *storage.Table, seed uint64) *Generator {
	return &Generator{table: table, seed: seed}
}

// Table returns the table metadata.
func (g *Generator) Table() *storage.Table { return g.table }

// rowRand produces the per-row random state: a SplitMix64 step keyed by
// (seed, row), giving O(1) access to any row.
func (g *Generator) rowRand(row int64) uint64 {
	z := g.seed + uint64(row)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// bits extracts a small uniform value in [0, n) from state word w.
func bitsMod(w uint64, rot uint, n int64) int64 {
	return int64((w >> rot) % uint64(n)) // n ≤ 2^32 in practice
}

// Column fills dst with rows [start, start+len(dst)) of column col.
func (g *Generator) Column(col int, start int64, dst []int64) {
	if start < 0 || start+int64(len(dst)) > g.table.Rows {
		panic(fmt.Sprintf("tpch: row range [%d,%d) out of table", start, start+int64(len(dst))))
	}
	switch col {
	case ColOrderKey:
		// ~4 lineitems per order, ascending (the clustered key).
		for i := range dst {
			row := start + int64(i)
			dst[i] = row/4 + 1
		}
	case ColPartKey:
		for i := range dst {
			dst[i] = bitsMod(g.rowRand(start+int64(i)), 0, 200_000*10) + 1
		}
	case ColSuppKey:
		for i := range dst {
			dst[i] = bitsMod(g.rowRand(start+int64(i)), 8, 10_000*10) + 1
		}
	case ColLineNumber:
		for i := range dst {
			dst[i] = (start+int64(i))%4 + 1
		}
	case ColQuantity:
		for i := range dst {
			dst[i] = bitsMod(g.rowRand(start+int64(i)), 16, 50) + 1
		}
	case ColExtendedPrice:
		// cents; correlated with quantity.
		for i := range dst {
			w := g.rowRand(start + int64(i))
			qty := bitsMod(w, 16, 50) + 1
			price := 90_000 + bitsMod(w, 24, 110_000)
			dst[i] = qty * price / 100
		}
	case ColDiscount:
		for i := range dst {
			dst[i] = bitsMod(g.rowRand(start+int64(i)), 32, 11) // 0.00-0.10 in %
		}
	case ColTax:
		for i := range dst {
			dst[i] = bitsMod(g.rowRand(start+int64(i)), 36, 9)
		}
	case ColReturnFlag:
		flags := [3]int64{'A', 'N', 'R'}
		for i := range dst {
			dst[i] = flags[bitsMod(g.rowRand(start+int64(i)), 40, 3)]
		}
	case ColLineStatus:
		status := [2]int64{'O', 'F'}
		for i := range dst {
			dst[i] = status[bitsMod(g.rowRand(start+int64(i)), 42, 2)]
		}
	case ColShipDate:
		// Strongly correlated with row position (orders arrive over time),
		// plus ±45 days of jitter: this is what makes zonemaps effective on
		// date predicates (paper §2(2)).
		g.dateColumn(start, dst, 0)
	case ColCommitDate:
		g.dateColumn(start, dst, 14)
	case ColReceiptDate:
		g.dateColumn(start, dst, 30)
	default:
		panic(fmt.Sprintf("tpch: column %d has no integer generator", col))
	}
}

func (g *Generator) dateColumn(start int64, dst []int64, lag int64) {
	rows := g.table.Rows
	for i := range dst {
		row := start + int64(i)
		base := row * int64(dateSpan-90) / rows
		jitter := bitsMod(g.rowRand(row), 44, 90) - 45
		d := base + jitter + 45 + lag
		if d < DateMin {
			d = DateMin
		}
		if d > DateMax {
			d = DateMax
		}
		dst[i] = d
	}
}

// ShipDateZoneMap builds the l_shipdate zonemap for a chunking of the table
// into numChunks equal tuple partitions, by sampling chunk boundaries (the
// generator's date model is monotone up to ±45-day jitter, so min/max are
// computed from the model rather than a full scan).
func (g *Generator) ShipDateZoneMap(numChunks int, tuplesPerChunk int64) *storage.ZoneMap {
	zm := storage.NewZoneMap(numChunks)
	rows := g.table.Rows
	for c := 0; c < numChunks; c++ {
		lo := int64(c) * tuplesPerChunk
		hi := lo + tuplesPerChunk - 1
		if hi >= rows {
			hi = rows - 1
		}
		if lo > hi {
			zm.SetBounds(c, 1, 0) // empty chunk: inverted bounds
			continue
		}
		minBase := lo * int64(dateSpan-90) / rows
		maxBase := hi * int64(dateSpan-90) / rows
		zm.SetBounds(c, clampDate(minBase+0), clampDate(maxBase+90+30))
	}
	return zm
}

func clampDate(d int64) int64 {
	if d < DateMin {
		return DateMin
	}
	if d > DateMax {
		return DateMax
	}
	return d
}

// MeasureDensity compresses a sample of column col and returns the achieved
// bits per value, validating (or refining) the static densities in
// LineitemTable.
func (g *Generator) MeasureDensity(col int, sample int) (float64, error) {
	if sample <= 0 {
		sample = 65536
	}
	if int64(sample) > g.table.Rows {
		sample = int(g.table.Rows)
	}
	c := g.table.Columns[col]
	switch c.Type {
	case storage.Int64, storage.Float64:
		vals := make([]int64, sample)
		g.Column(col, 0, vals)
		buf, err := compress.EncodeInts(c.Compression, vals)
		if err != nil {
			return 0, err
		}
		return compress.BitsPerValue(buf)
	}
	return 0, fmt.Errorf("tpch: column %d (%s) is not an integer column", col, c.Name)
}

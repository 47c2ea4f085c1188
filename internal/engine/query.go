package engine

import (
	"encoding/binary"
	"math"

	"coopscan/internal/exec"
	"coopscan/internal/storage"
)

// Q6Cols returns the column set the FAST (TPC-H Q6) kernel reads: 4 of the
// NumCols stored columns, 32 of the 112 stored bytes per tuple — the
// projection a DSM table turns directly into an I/O saving.
func Q6Cols() storage.ColSet {
	return storage.Cols(ColShipDate, ColQuantity, ColExtendedPrice, ColDiscount)
}

// Q6Preds renders the Q6 kernel's filters as predicate ranges for zonemap
// pruning: shipdate in [DateLo, DateHi) and quantity < MaxQty become
// inclusive intervals, and discount in [DiscLo, DiscHi] passes through. A
// chunk whose persisted bounds exclude any conjunct cannot contribute a
// matching tuple, so pruning with these never changes the Q6 aggregate.
func Q6Preds(pred exec.Q6Predicate) []PredRange {
	return []PredRange{
		{Col: ColShipDate, Lo: pred.DateLo, Hi: pred.DateHi - 1},
		{Col: ColQuantity, Lo: math.MinInt64, Hi: pred.MaxQty - 1},
		{Col: ColDiscount, Lo: pred.DiscLo, Hi: pred.DiscHi},
	}
}

// Q1Cols returns the column set the SLOW (TPC-H Q1) kernel reads.
func Q1Cols() storage.ColSet {
	return storage.Cols(ColShipDate, ColQuantity, ColExtendedPrice, ColDiscount,
		ColTax, ColReturnFlag, ColLineStatus)
}

// ProjectionBytes returns the per-tuple width of a column projection: the
// useful bytes one delivered tuple carries for a query reading cols.
func ProjectionBytes(cols storage.ColSet) int64 {
	var w int64
	cols.Each(func(col int) { w += colWidths[col] })
	return w
}

// ChunkData is one delivered chunk's contents: the pinned column stripes of
// a resident chunk, valid for the duration of the OnChunk callback (the
// ABM's pins guarantee the parts' frames cannot be evicted and reused
// while the query processes them). Only the columns the scan declared are
// populated — on a DSM table the other columns were never read from disk.
type ChunkData struct {
	stripes [][]byte       // indexed by column; nil when not delivered
	cols    storage.ColSet // the delivered columns
	tuples  int64          // valid rows in this chunk (the last chunk is short)
}

// Tuples returns the number of valid rows in the chunk.
func (d ChunkData) Tuples() int64 { return d.tuples }

// Cols returns the delivered column set.
func (d ChunkData) Cols() storage.ColSet { return d.cols }

// Has reports whether column col was delivered.
func (d ChunkData) Has(col int) bool { return d.cols.Has(col) }

// Int64 returns row i of the stored 8-byte column col (not the comment
// filler, whose tuples are wider).
func (d ChunkData) Int64(col int, i int64) int64 {
	return int64(binary.LittleEndian.Uint64(d.stripes[col][i*8:]))
}

// Col returns the raw little-endian stripe of a stored column (nil if the
// column was not delivered).
func (d ChunkData) Col(col int) []byte { return d.stripes[col] }

// Q6Chunk evaluates the FAST query (TPC-H Q6) over one delivered chunk,
// straight from the pinned buffer bytes. It computes the same aggregate as
// exec.Q6Chunk does over the generator, so live results can be verified
// against the simulation substrate. The chunk must carry Q6Cols.
func Q6Chunk(d ChunkData, pred exec.Q6Predicate) exec.Q6Result {
	dates, disc := d.Col(ColShipDate), d.Col(ColDiscount)
	qty, price := d.Col(ColQuantity), d.Col(ColExtendedPrice)
	var res exec.Q6Result
	for i := int64(0); i < d.tuples; i++ {
		date := int64(binary.LittleEndian.Uint64(dates[i*8:]))
		dc := int64(binary.LittleEndian.Uint64(disc[i*8:]))
		q := int64(binary.LittleEndian.Uint64(qty[i*8:]))
		if date >= pred.DateLo && date < pred.DateHi &&
			dc >= pred.DiscLo && dc <= pred.DiscHi && q < pred.MaxQty {
			res.Revenue += int64(binary.LittleEndian.Uint64(price[i*8:])) * dc
			res.Rows++
		}
	}
	return res
}

// Q1Chunk evaluates the SLOW query (TPC-H Q1 with extraArith rounds of
// additional arithmetic per row) over one delivered chunk, mirroring
// exec.Q1Chunk. The chunk must carry Q1Cols.
func Q1Chunk(d ChunkData, dateMax int64, extraArith int) exec.Q1Result {
	res := make(exec.Q1Result, 4)
	for i := int64(0); i < d.tuples; i++ {
		if d.Int64(ColShipDate, i) > dateMax {
			continue
		}
		qty := d.Int64(ColQuantity, i)
		price := d.Int64(ColExtendedPrice, i)
		disc := d.Int64(ColDiscount, i)
		tax := d.Int64(ColTax, i)
		discPrice := price * (100 - disc) / 100
		charge := discPrice * (100 + tax) / 100
		x := charge
		for r := 0; r < extraArith; r++ {
			x = x*31 + qty
			x ^= x >> 7
		}
		if x == -1 {
			continue // practically never; keeps x live
		}
		k := [2]byte{byte(d.Int64(ColReturnFlag, i)), byte(d.Int64(ColLineStatus, i))}
		grp, ok := res[k]
		if !ok {
			grp = &exec.Q1Group{Flag: k[0], Status: k[1]}
			res[k] = grp
		}
		grp.Count++
		grp.SumQty += qty
		grp.SumBase += price
		grp.SumDisc += discPrice
		grp.SumCharge += charge
	}
	return res
}

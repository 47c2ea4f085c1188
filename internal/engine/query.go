package engine

import (
	"hash/crc32"
	"sync/atomic"

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
	date, disc, qty := pred.Ranges()
	return []PredRange{
		{Col: ColShipDate, Lo: date.Lo, Hi: date.Hi},
		{Col: ColQuantity, Lo: qty.Lo, Hi: qty.Hi},
		{Col: ColDiscount, Lo: disc.Lo, Hi: disc.Hi},
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

// ChunkData is one delivered chunk's contents: the pinned typed column
// vectors of a resident chunk. Only the columns the scan declared are
// populated — on a DSM table the other columns were never read from disk.
//
// A ChunkData, and every slice Ints or Col returns, is valid for the
// duration of the OnChunk callback and no longer: the slices are the parts'
// frames themselves (on NSM, windows of the chunk's one frame), which the
// scan's pins keep from being evicted and refilled only until the callback
// returns. They are shared with every other scan delivered the same chunk,
// so a callback reads them and never writes; a result it keeps is a value it
// computed (an aggregate, a CRC), not a slice.
//
// What the engine itself may keep on a part for its consumers to share is
// the same kind of thing: a pure function of the part's bytes, valid for one
// residency (ColCRC is the first).
type ChunkData struct {
	vecs   [][]int64      // indexed by column; nil when not delivered
	cols   storage.ColSet // the delivered columns
	tuples int64          // valid rows in this chunk (the last chunk is short)
	// memo[col] is the slot of col's part that remembers ColCRC(col) (see
	// frame.crcs); table — its file's bounds, its receipt and kernel meters —
	// delivered chunk number chunk, and is nil on a ChunkData built by hand.
	memo  []*atomic.Uint64
	table *serverTable
	chunk int
}

// Tuples returns the number of valid rows in the chunk.
func (d ChunkData) Tuples() int64 { return d.tuples }

// Cols returns the delivered column set.
func (d ChunkData) Cols() storage.ColSet { return d.cols }

// Has reports whether column col was delivered.
func (d ChunkData) Has(col int) bool { return d.cols.Has(col) }

// Ints returns the valid rows of the stored 8-byte column col as a typed
// vector, Tuples long — what the kernels read (nil if the column was not
// delivered). The comment filler, whose tuples are four words wide, has no
// such view; use Col.
func (d ChunkData) Ints(col int) []int64 {
	if d.vecs[col] == nil || colWidths[col] != 8 {
		return nil
	}
	return d.vecs[col][:d.tuples]
}

// Col returns the whole stripe of a stored column as raw little-endian
// bytes, zero padding of a short last chunk included (nil if the column was
// not delivered): the view receipts and byte-for-byte comparisons take.
func (d ChunkData) Col(col int) []byte { return wordBytes(d.vecs[col]) }

// ColCRC returns the CRC-32 (IEEE) of the valid prefix — Tuples × ColWidth
// bytes — of delivered column col. The sum is a function of the part alone,
// so it is taken once per residency: the first scan to ask hashes the bytes
// and leaves the sum on the part's frame, every other scan delivered the
// part while it stays resident reads it back. Nothing waits: two scans
// asking at once both hash, and store the same word.
func (d ChunkData) ColCRC(col int) uint32 {
	slot := d.memo[col]
	if v := slot.Load(); v&crcValid != 0 {
		d.table.receipts.reused.add(1)
		return uint32(v)
	}
	crc := crc32.ChecksumIEEE(d.Col(col)[:d.tuples*colWidths[col]])
	slot.Store(crcValid | uint64(crc))
	d.table.receipts.computed.add(1)
	return crc
}

// Bounds returns the chunk's persisted zonemap bounds on column col: every
// valid row's value lies in [lo, hi]. Where there are none — the comment
// filler, a ChunkData no table delivered — ok is false and [lo, hi] everything.
func (d ChunkData) Bounds(col int) (lo, hi int64, ok bool) {
	if d.table == nil || d.table.tf.zones[col] == nil {
		return storage.AnyZone.Lo, storage.AnyZone.Hi, false
	}
	lo, hi = d.table.tf.zones[col].Bounds(d.chunk)
	return lo, hi, true
}

func (d ChunkData) zone(col int) storage.Zone {
	lo, hi, _ := d.Bounds(col)
	return storage.Zone{Lo: lo, Hi: hi}
}

// count meters what the chunk's bounds decided for a kernel.
func (d ChunkData) count(decided storage.Decided) {
	if d.table != nil {
		d.table.kernels[decided].add(1)
	}
}

// Q6Chunk evaluates the FAST query (TPC-H Q6) over one delivered chunk with
// the vectorised kernel, straight from the pinned frames, after asking the
// chunk's bounds what Q6Preds and ZoneMap.Prune ask at registration of a scan
// that passes Preds: a chunk they exclude is answered without reading a
// value, one inside the date range skips the date pass. It computes the
// same aggregate as exec.Q6Chunk does over the generator, so live results
// can be verified against the simulation substrate. The chunk must carry
// Q6Cols.
func Q6Chunk(d ChunkData, pred exec.Q6Predicate) exec.Q6Result {
	res, decided := exec.Q6Kernel(d.Ints(ColShipDate), d.Ints(ColDiscount),
		d.Ints(ColQuantity), d.Ints(ColExtendedPrice), pred,
		d.zone(ColShipDate), d.zone(ColDiscount), d.zone(ColQuantity))
	d.count(decided)
	return res
}

// Q1Chunk evaluates the SLOW query (TPC-H Q1 with extraArith rounds of
// additional arithmetic per row) over one delivered chunk, mirroring
// exec.Q1Chunk; a chunk whose bounds put every date past dateMax is answered
// empty without reading a value. The chunk must carry Q1Cols.
func Q1Chunk(d ChunkData, dateMax int64, extraArith int) exec.Q1Result {
	res, decided := exec.Q1Kernel(d.Ints(ColShipDate), d.Ints(ColQuantity), d.Ints(ColExtendedPrice),
		d.Ints(ColDiscount), d.Ints(ColTax), d.Ints(ColReturnFlag), d.Ints(ColLineStatus),
		dateMax, extraArith, d.zone(ColShipDate))
	d.count(decided)
	return res
}

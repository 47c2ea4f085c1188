// Package engine is the live cooperative-scan runtime: it executes the
// paper's Cooperative Scans over real chunked table files on disk, in
// wall-clock time.
//
// Where internal/core runs the policies inside a discrete-event simulator,
// the engine drives the *same* Active Buffer Manager bookkeeping and the
// *same* policy decision core (core.SchedulerPolicy — Normal, Attach,
// Elevator and Relevance) over real bytes: the ABM is the buffer manager —
// every resident chunk part owns one frame of its decoded size, drawn from
// a small size-classed allocator (frames.go) and returned when the ABM
// evicts the part — and queries (TPC-H Q6/Q1-style aggregations from
// internal/exec's kernels) compute true results from the file's contents.
//
// # Design notes
//
// Server is the runtime: one goroutine per Scan call, one scheduler
// goroutine owning every load and eviction decision across all attached
// tables, and a bounded pool of load workers (ServerConfig.InFlightDepth)
// executing the file reads, so completions commit out of issue order while
// the ABM's part states keep the decision machine coherent. Each table has
// its own live ABM (the paper's §7.1 "separate statistics and meta-data
// for each" table); one shared buffer budget is moved between them by the
// demand-driven arbiter in core.Manager.Rebalance. An optional
// device-bandwidth model
// (ServerConfig.ReadBandwidth) restores the paper's premise — device
// bandwidth as the scarce resource — when the table files sit in the OS
// page cache, where re-reads would otherwise be free.
//
// TableFile (this file) is the storage format: a 64-byte header, a
// per-page checksum table, then NumChunks × NumCols fixed-size column
// stripes of deterministic tpch-generated data, in one of two physical
// orders:
//
//   - NSM: chunk-major (PAX-style) — all of chunk 0's stripes, then all of
//     chunk 1's. A chunk is one contiguous region; loading it means loading
//     every column, whatever the query projects.
//   - DSM: column-major (the paper's §5) — all of column 0's stripes, then
//     all of column 1's. A (chunk, column) stripe is an independently
//     addressable extent, so a query's I/O cost is its projection width.
//
// One stripe is one page of the file's addressing either way, and an ABM
// part is one contiguous run of pages (PartPages): the whole chunk in NSM,
// one column stripe in DSM. A storage.NSMLayout or chunk-aligned
// storage.DSMLayout describes the geometry, so the ABM schedules over a
// real file exactly like a simulated table.
package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"coopscan/internal/colstore/compress"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// The live table file stores the lineitem columns the FAST (Q6) and SLOW
// (Q1) queries read, plus the unread padding columns a real lineitem
// carries (orderkey/partkey/suppkey and a comment-sized filler), so the
// projection ratio of a narrow query is realistic: Q6 touches 32 of the
// 112 stored bytes per tuple. Values are 8-byte little-endian words; the
// comment filler is four words per tuple (~the 27-byte average TPC-H
// comment, rounded to whole words).
const (
	ColShipDate = iota
	ColQuantity
	ColExtendedPrice
	ColDiscount
	ColTax
	ColReturnFlag
	ColLineStatus
	ColOrderKey
	ColPartKey
	ColSuppKey
	ColComment
	NumCols
)

// tpchCols maps the file's column order to tpch generator columns; the
// comment filler (-1) is generated by fillerWord instead.
var tpchCols = [NumCols]int{
	tpch.ColShipDate,
	tpch.ColQuantity,
	tpch.ColExtendedPrice,
	tpch.ColDiscount,
	tpch.ColTax,
	tpch.ColReturnFlag,
	tpch.ColLineStatus,
	tpch.ColOrderKey,
	tpch.ColPartKey,
	tpch.ColSuppKey,
	-1,
}

// colNames names the stored columns (for the layout's table metadata).
var colNames = [NumCols]string{
	"l_shipdate", "l_quantity", "l_extendedprice", "l_discount",
	"l_tax", "l_returnflag", "l_linestatus",
	"l_orderkey", "l_partkey", "l_suppkey", "l_comment",
}

// colWidths is the stored width of each column in bytes per tuple.
var colWidths = [NumCols]int64{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 32}

// ColWidth returns the stored width of a column in bytes per tuple.
func ColWidth(col int) int64 { return colWidths[col] }

// TupleBytes returns the full stored row width (the sum of all column
// widths): the bytes an NSM chunk pays per tuple regardless of projection.
func TupleBytes() int64 {
	var w int64
	for _, cw := range colWidths {
		w += cw
	}
	return w
}

// maxColWidth returns the widest stored column's bytes per tuple.
func maxColWidth() int64 {
	var w int64
	for _, cw := range colWidths {
		if cw > w {
			w = cw
		}
	}
	return w
}

// Format selects the physical organisation of a table file.
type Format int

// The two stored formats.
const (
	// NSM stores chunk-major: a chunk is a contiguous run of all columns'
	// stripes, loaded and evicted as a unit (col = -1 parts).
	NSM Format = iota
	// DSM stores column-major: each column is a contiguous run of chunk
	// stripes, loaded and evicted per (chunk, column) part.
	DSM
)

func (f Format) String() string {
	switch f {
	case NSM:
		return "nsm"
	case DSM:
		return "dsm"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

const (
	tableMagic   = uint64(0x434f4f504c495645) // "COOPLIVE"
	tableVersion = 3                          // v3: per-page checksum table after the header
	// tableVersionCompressed is the v4 DSM-only format: each (chunk,column)
	// extent is stored compressed under a per-column compress.Scheme, with a
	// per-extent length directory and a per-column zonemap footer between
	// the checksum table and the data region. Checksums cover the stored
	// (compressed) bytes; readers decompress at load time into fixed-width
	// frames, so everything downstream of the read path is unchanged.
	tableVersionCompressed = 4
	headerBytes            = 64
)

// schemeIdentity marks a column whose extents are stored as the raw stripe
// bytes (no codec): the comment filler, and any column where the sampled
// codecs fail to beat raw. It deliberately does not collide with the
// compress.Scheme space.
const schemeIdentity = 0xFF

// schemeTableBytes is the v4 per-column scheme table size, padded to an
// 8-byte boundary so the extent directory after it stays aligned.
const schemeTableBytes = (NumCols + 7) &^ 7

// crcTable is the CRC32-C (Castagnoli) table behind every page checksum.
// CRC32-C is hardware-accelerated on amd64/arm64 (~30 GB/s vs ~2 GB/s for
// the table-driven CRC64), which is what keeps verification invisible next
// to page-cache read speed. Each sum still occupies a fixed 8-byte slot in
// the file's checksum table (zero-extended), so the v3 layout has room for
// a wider checksum without moving the data region.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pageChecksum is the per-page checksum as stored in the file's table.
func pageChecksum(b []byte) uint64 { return uint64(crc32.Checksum(b, crcTable)) }

// Typed failure modes of opening and reading table files. Open wraps these
// with path context; match with errors.Is.
var (
	// ErrBadMagic: the file is not a table file at all (zero-filled,
	// foreign, or the header itself was torn).
	ErrBadMagic = errors.New("engine: bad table file magic")
	// ErrBadVersion: a table file, but a format version this build does not
	// read.
	ErrBadVersion = errors.New("engine: unsupported table file version")
	// ErrBadGeometry: header fields that cannot describe a real table
	// (non-positive sizes, wrong column count, unknown format, or a file
	// size that disagrees with the header's geometry).
	ErrBadGeometry = errors.New("engine: bad table file geometry")
	// ErrTruncated: the header promises more bytes than the file holds.
	ErrTruncated = errors.New("engine: truncated table file")
	// ErrChecksum: a page's stored checksum does not match its bytes — a torn
	// write, bit-flip, or corrupted read. Loads verify every page before
	// committing it, so corrupt data never reaches a query kernel.
	ErrChecksum = errors.New("engine: page checksum mismatch")
)

// ErrCorrupt re-exports the codec's decode failure: a v4 extent whose stored
// bytes passed their CRC but do not decode to exactly one stripe of values.
// Like ErrChecksum it arrives wrapped in a *PageError, so the load path
// quarantines the precise (chunk, column) part instead of delivering wrong
// tuples.
var ErrCorrupt = compress.ErrCorrupt

// PageError records the table-local page a read or verification failed on,
// so the engine's abort path can quarantine exactly the affected
// (chunk, column) part. Extract with errors.As.
type PageError struct {
	Page int64
	Err  error
}

func (e *PageError) Error() string { return e.Err.Error() }
func (e *PageError) Unwrap() error { return e.Err }

// TableFile is a table stored as a real chunked file: a 64-byte header, a
// checksum table (one CRC32-C per page, in an 8-byte slot), then NumChunks × NumCols column
// stripes in chunk-major (NSM) or column-major (DSM) order. Chunk/extent
// geometry is described by a storage.Layout so the ABM schedules over it
// exactly like a simulated table.
//
// The unit of addressing is the page: one (chunk, column) stripe. Page p's
// size and file position depend on the format (see PageBytes/PartPages);
// consecutive page indexes are always contiguous in the file, so a run of
// pages can be read with a single positioned read (ReadPageRange).
type TableFile struct {
	f              *os.File
	r              io.ReaderAt // page-read path; WrapReader swaps in fault injection
	path           string
	rows           int64
	tuplesPerChunk int64
	seed           uint64
	format         Format
	version        int
	layout         storage.Layout
	numChunks      int
	dataOff        int64          // data region start: header + checksum table (+ v4 directories)
	sums           []uint64       // per-page checksums (page-index order)
	stripeOff      [NumCols]int64 // NSM: stripe j's offset within a chunk
	colBase        [NumCols]int64 // DSM: column j's offset within the data region

	// v4 (compressed) state. schemes holds each column's compress.Scheme
	// byte (schemeIdentity for raw-stored columns); extLen/extOff are the
	// stored length and data-region offset of every page in page-index
	// order (offsets are prefix sums, so consecutive pages stay contiguous
	// and coalesced run reads still work); zones are the persisted
	// per-column chunk bounds (nil for the comment filler and on v3 files).
	schemes [NumCols]byte
	extLen  []int64
	extOff  []int64
	zones   [NumCols]*storage.ZoneMap
	// storedScratch pools the stored-byte scratch (*[]byte) the v4 read path
	// preads one coalesced run of compressed extents into; the decoded values
	// go straight into the caller's words.
	storedScratch sync.Pool
}

// WrapReader redirects all page reads through wrap(current reader) — the
// fault-injection seam. The wrapped reader must serve the same file bytes
// (possibly slower, corrupted, or failing); page checksums are verified
// downstream of it, so injected corruption surfaces as ErrChecksum.
func (t *TableFile) WrapReader(wrap func(io.ReaderAt) io.ReaderAt) {
	t.r = wrap(t.r)
}

// Format returns the file's physical organisation.
func (t *TableFile) Format() Format { return t.format }

// ColStripeBytes returns the size of one (chunk, column) stripe — the
// page size of that column, and the frame size of its DSM parts.
func (t *TableFile) ColStripeBytes(col int) int64 { return t.tuplesPerChunk * colWidths[col] }

// ChunkBytes returns the decoded size of one full chunk (all NumCols
// stripes) — the buffer demand, and frame size, of an NSM chunk part.
func (t *TableFile) ChunkBytes() int64 { return t.tuplesPerChunk * TupleBytes() }

// Layout returns the chunk/extent geometry the ABM schedules against: an
// NSMLayout for NSM files, a chunk-aligned DSMLayout for DSM files.
func (t *TableFile) Layout() storage.Layout { return t.layout }

// NumChunks returns the chunk count.
func (t *TableFile) NumChunks() int { return t.numChunks }

// NumPages returns the number of pages (stripes) in the file.
func (t *TableFile) NumPages() int64 { return int64(t.numChunks) * NumCols }

// Rows returns the table's row count.
func (t *TableFile) Rows() int64 { return t.rows }

// TuplesPerChunk returns the rows per (full) chunk.
func (t *TableFile) TuplesPerChunk() int64 { return t.tuplesPerChunk }

// Seed returns the generator seed the file was built from.
func (t *TableFile) Seed() uint64 { return t.seed }

// Path returns the file's path.
func (t *TableFile) Path() string { return t.path }

// Close closes the underlying file.
func (t *TableFile) Close() error { return t.f.Close() }

// pageCol returns the column a page belongs to.
func (t *TableFile) pageCol(p int64) int {
	if t.format == DSM {
		return int(p / int64(t.numChunks))
	}
	return int(p % NumCols)
}

// PageBytes returns the size of page p as the engine buffers it: always the
// decompressed fixed-width stripe, whatever is stored on disk.
func (t *TableFile) PageBytes(p int64) int64 { return t.ColStripeBytes(t.pageCol(p)) }

// StoredPageBytes returns the bytes page p occupies on disk: the compressed
// extent length on v4 files, PageBytes otherwise. This is what the device
// (and the -read-mbps bandwidth model) actually pays per page.
func (t *TableFile) StoredPageBytes(p int64) int64 {
	if t.version == tableVersionCompressed {
		return t.extLen[p]
	}
	return t.PageBytes(p)
}

// StoredRunBytes sums StoredPageBytes over a run of consecutive pages.
func (t *TableFile) StoredRunBytes(first int64, count int) int64 {
	var total int64
	for p := first; p < first+int64(count); p++ {
		total += t.StoredPageBytes(p)
	}
	return total
}

// Compressed reports whether the file stores v4 compressed extents.
func (t *TableFile) Compressed() bool { return t.version == tableVersionCompressed }

// StoredBytes returns the size of the on-disk data region: the sum of every
// stored extent. On v3 files this equals NumChunks×ChunkBytes; on v4 files
// it is the compressed footprint the ratio reports compare against raw.
func (t *TableFile) StoredBytes() int64 {
	if t.version == tableVersionCompressed {
		return t.StoredRunBytes(0, int(t.NumPages()))
	}
	return int64(t.numChunks) * t.ChunkBytes()
}

// ColScheme returns the compress.Scheme column col's extents are stored
// under, with ok=false when the column is stored as raw stripe bytes
// (identity columns on v4 files, and every column on v3 files).
func (t *TableFile) ColScheme(col int) (compress.Scheme, bool) {
	if t.version != tableVersionCompressed || t.schemes[col] == schemeIdentity {
		return 0, false
	}
	return compress.Scheme(t.schemes[col]), true
}

// ZoneMap returns the persisted per-chunk bounds of column col, or nil when
// the file carries none (v3 files, and the comment filler whose bytes are
// not ordered values). The returned map is shared and must not be mutated.
func (t *TableFile) ZoneMap(col int) *storage.ZoneMap {
	if col < 0 || col >= NumCols {
		return nil
	}
	return t.zones[col]
}

// pageOffset returns page p's position within the data region. Consecutive
// pages are contiguous in both formats (stripes tile the chunk in NSM, the
// column in DSM, and chunks/columns tile the file — and the v4 extent
// directory is built as prefix sums in page order), which is what lets
// ReadPageRange coalesce a run of pages into one positioned read.
func (t *TableFile) pageOffset(p int64) int64 {
	if t.version == tableVersionCompressed {
		return t.extOff[p]
	}
	if t.format == DSM {
		col := int(p / int64(t.numChunks))
		chunk := p % int64(t.numChunks)
		return t.colBase[col] + chunk*t.ColStripeBytes(col)
	}
	chunk := p / NumCols
	return chunk*t.ChunkBytes() + t.stripeOff[p%NumCols]
}

// PartPages returns the page run backing one ABM part: the whole chunk
// (col == -1, NumCols pages) in NSM, one column stripe in DSM.
func (t *TableFile) PartPages(chunk, col int) (first int64, count int) {
	if t.format == DSM {
		if col < 0 || col >= NumCols {
			panic(fmt.Sprintf("engine: DSM part column %d out of range", col))
		}
		return int64(col)*int64(t.numChunks) + int64(chunk), 1
	}
	return int64(chunk) * NumCols, NumCols
}

// stripes appends the per-column vectors of an NSM chunk frame (one
// PartPages(chunk, -1) run, ChunkBytes long) to dst, in column order — the
// shape ChunkData hands the kernels. Stripe offsets are whole words.
func (t *TableFile) stripes(dst [][]int64, chunk []int64) [][]int64 {
	for j := 0; j < NumCols; j++ {
		off := t.stripeOff[j] / 8
		end := off + t.ColStripeBytes(j)/8
		dst = append(dst, chunk[off:end:end])
	}
	return dst
}

// PagePart is PartPages' inverse: the ABM part page p belongs to —
// (chunk, col) in DSM, (chunk, -1) in NSM.
func (t *TableFile) PagePart(p int64) (chunk, col int) {
	if t.format == DSM {
		return int(p % int64(t.numChunks)), int(p / int64(t.numChunks))
	}
	return int(p / NumCols), -1
}

// PartFileRange returns the absolute file byte range of one ABM part — the
// seam tests and the CLIs use to aim a persistent fault range at a specific
// (chunk, column) part.
func (t *TableFile) PartFileRange(chunk, col int) (off, size int64) {
	first, count := t.PartPages(chunk, col)
	off = t.dataOff + t.pageOffset(first)
	return off, t.StoredRunBytes(first, count)
}

// ReadPageRange reads count consecutive pages starting at page first into
// buf (their summed sizes long) with a single positioned read — the
// coalesced per-extent read of the live load path. Every page's checksum is
// verified against the file's checksum table before the bytes are accepted;
// a mismatch (or a read error) comes back tagged with the failing page as a
// *PageError, so callers can retry or quarantine precisely. It is safe for
// concurrent use (ReadAt).
//
// buf is landed on as int64 words by the same routine that fills the
// engine's frames, so it must start on an 8-byte boundary (any whole
// allocation does; an odd sub-slice gets ErrUnaligned, never a misread).
func (t *TableFile) ReadPageRange(first int64, count int, buf []byte) error {
	dst, err := bytesWords(buf)
	if err != nil {
		return err
	}
	return t.readPageRange(first, count, dst, nil, nil)
}

// readPageRange is the one landing routine — of ReadPageRange's byte
// buffers and of the load path's frames alike — with wall-time collectors:
// when verify or decomp are non-nil, the time spent in checksum verification
// and (on v4 files) extent decompression is added to them, so the
// instrumented load path can report read, verify and decompress latency
// separately. dst is the pages' decoded words.
func (t *TableFile) readPageRange(first int64, count int, dst []int64, verify, decomp *time.Duration) error {
	var want int64
	for p := first; p < first+int64(count); p++ {
		want += t.PageBytes(p)
	}
	if int64(len(dst))*8 != want {
		return fmt.Errorf("engine: ReadPageRange buffer %d bytes, want %d", len(dst)*8, want)
	}
	if t.version == tableVersionCompressed {
		return t.readPageRangeV4(first, count, dst, verify, decomp)
	}
	buf := wordBytes(dst)
	if _, err := t.r.ReadAt(buf, t.dataOff+t.pageOffset(first)); err != nil {
		return &PageError{Page: first, Err: err}
	}
	var vstart time.Time
	if verify != nil {
		vstart = time.Now()
	}
	var off int64
	for p := first; p < first+int64(count); p++ {
		n := t.PageBytes(p)
		if got := pageChecksum(buf[off : off+n]); got != t.sums[p] {
			if verify != nil {
				*verify += time.Since(vstart)
			}
			return t.checksumError(p, got)
		}
		off += n
	}
	if verify != nil {
		*verify += time.Since(vstart)
	}
	return nil
}

// checksumError is the typed failure of page p whose bytes summed to got.
func (t *TableFile) checksumError(p int64, got uint64) error {
	chunk, col := t.PagePart(p)
	return &PageError{Page: p, Err: fmt.Errorf("engine: %s page %d (chunk %d, col %d): crc %#x, want %#x: %w",
		t.path, p, chunk, col, got, t.sums[p], ErrChecksum)}
}

// readPageRangeV4 is the compressed read path: one positioned read of the
// coalesced stored run into pooled scratch, per-extent CRC over the stored
// bytes, then per-extent decode straight into the caller's words — the
// codec's output is the part, there is no second pass over the values. CRC
// failures surface as ErrChecksum and post-CRC decode failures as
// ErrCorrupt, both wrapped in a *PageError naming the precise page, so the
// engine retries or quarantines exactly the affected (chunk, column) part
// and a corrupt extent can never decode into wrong tuples.
func (t *TableFile) readPageRangeV4(first int64, count int, dst []int64, verify, decomp *time.Duration) error {
	stored := t.StoredRunBytes(first, count)
	sc, _ := t.storedScratch.Get().(*[]byte)
	if sc == nil {
		sc = new([]byte)
	}
	defer t.storedScratch.Put(sc)
	if int64(cap(*sc)) < stored {
		*sc = make([]byte, stored)
	}
	raw := (*sc)[:stored]
	if _, err := t.r.ReadAt(raw, t.dataOff+t.extOff[first]); err != nil {
		return &PageError{Page: first, Err: err}
	}
	var off, roff int64
	for p := first; p < first+int64(count); p++ {
		ext := raw[roff : roff+t.extLen[p]]
		var vstart time.Time
		if verify != nil {
			vstart = time.Now()
		}
		got := pageChecksum(ext)
		if verify != nil {
			*verify += time.Since(vstart)
		}
		if got != t.sums[p] {
			return t.checksumError(p, got)
		}
		n := t.PageBytes(p) / 8
		// Capped at the page, so an extent claiming more values than a stripe
		// decodes elsewhere (and fails the length check) instead of running
		// over the next page's words.
		page := dst[off : off+n : off+n]
		var dstart time.Time
		if decomp != nil {
			dstart = time.Now()
		}
		chunk, col := t.PagePart(p)
		if t.schemes[col] == schemeIdentity {
			copy(wordBytes(page), ext)
		} else {
			vals, err := compress.DecodeIntsInto(page, ext)
			if err != nil {
				return &PageError{Page: p, Err: fmt.Errorf("engine: %s page %d (chunk %d, col %d): decode: %w",
					t.path, p, chunk, col, err)}
			}
			if int64(len(vals)) != t.tuplesPerChunk {
				return &PageError{Page: p, Err: fmt.Errorf("engine: %s page %d (chunk %d, col %d): decoded %d values, want %d: %w",
					t.path, p, chunk, col, len(vals), t.tuplesPerChunk, ErrCorrupt)}
			}
		}
		if decomp != nil {
			*decomp += time.Since(dstart)
		}
		off += n
		roff += t.extLen[p]
	}
	return nil
}

// tableMeta builds the stored table's metadata: 8-byte int64 columns plus
// the 32-byte comment filler, every width a whole number of bytes so the
// chunk-aligned DSM geometry applies.
func tableMeta(rows int64) *storage.Table {
	cols := make([]storage.Column, NumCols)
	for i := range cols {
		typ := storage.Int64
		if colWidths[i] != 8 {
			typ = storage.String
		}
		cols[i] = storage.Column{Name: colNames[i], Type: typ, BitsPerValue: float64(colWidths[i]) * 8}
	}
	return &storage.Table{Name: "lineitem-live", Columns: cols, Rows: rows}
}

// newLayout builds the scheduling geometry for a stored table. NSM: a chunk
// is one contiguous NumCols-stripe region (col = -1 parts). DSM: a
// chunk-aligned column layout whose page size is the narrow-column stripe,
// so every (chunk, column) extent is a whole number of stripes and chunks
// never share pages.
func newLayout(format Format, rows, tuplesPerChunk int64) storage.Layout {
	table := tableMeta(rows)
	if format == DSM {
		return storage.NewDSMLayoutAligned(table, tuplesPerChunk, tuplesPerChunk*8, 0)
	}
	chunkBytes := tuplesPerChunk * TupleBytes()
	return storage.NewNSMLayoutWidth(table, chunkBytes, 0, float64(TupleBytes()))
}

// fillerWord is the deterministic generator of the comment filler column
// (word k of row row): a SplitMix64-style mix, so DSM files can be verified
// byte-for-byte without a tpch string generator round trip.
func fillerWord(seed uint64, row int64, k int) uint64 {
	z := seed ^ 0x636f6d6d656e7421 + uint64(row)*0x9E3779B97F4A7C15 + uint64(k+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fillStripe renders the stripe of column j, chunk c (n valid tuples) into
// buf, zero-padding the short last chunk.
func fillStripe(gen *tpch.Generator, seed uint64, c int, j int, tpc int64, n int64, vals []int64, buf []byte) {
	start := int64(c) * tpc
	w := colWidths[j]
	if j == ColComment {
		words := int(w / 8)
		for i := int64(0); i < n; i++ {
			for k := 0; k < words; k++ {
				binary.LittleEndian.PutUint64(buf[i*w+int64(k)*8:], fillerWord(seed, start+i, k))
			}
		}
	} else {
		gen.Column(tpchCols[j], start, vals[:n])
		for i := int64(0); i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*w:], uint64(vals[i]))
		}
	}
	for i := n * w; i < int64(len(buf)); i++ {
		buf[i] = 0
	}
}

// Create generates an NSM (chunk-major) table file of the given row count
// at path: real TPC-H lineitem-like data from the deterministic tpch
// generator, written chunk by chunk. Files are padded to whole chunks
// (trailing rows of the last chunk are zero).
func Create(path string, rows, tuplesPerChunk int64, seed uint64) (*TableFile, error) {
	return CreateFormat(path, NSM, rows, tuplesPerChunk, seed)
}

// CreateFormat is Create with an explicit physical format: chunk-major NSM
// stripes, or column-major DSM extents (each column contiguous, so queries
// read only the columns they project).
func CreateFormat(path string, format Format, rows, tuplesPerChunk int64, seed uint64) (*TableFile, error) {
	if rows <= 0 || tuplesPerChunk <= 0 {
		return nil, fmt.Errorf("engine: Create(rows=%d, tuplesPerChunk=%d)", rows, tuplesPerChunk)
	}
	if format != NSM && format != DSM {
		return nil, fmt.Errorf("engine: Create with unknown format %d", int(format))
	}
	if err := checkByteOrder(); err != nil {
		return nil, err
	}
	table := tpch.LineitemTable(1)
	table.Rows = rows
	gen := tpch.NewGenerator(table, seed)

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// On any failure below, remove the partial file: a truncated table at
	// this path would make every later Open fail instead of regenerating.
	abort := func(err error) (*TableFile, error) {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], tableMagic)
	binary.LittleEndian.PutUint64(hdr[8:], tableVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(rows))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(tuplesPerChunk))
	binary.LittleEndian.PutUint64(hdr[32:], seed)
	binary.LittleEndian.PutUint64(hdr[40:], NumCols)
	binary.LittleEndian.PutUint64(hdr[48:], uint64(format))
	if _, err := w.Write(hdr[:]); err != nil {
		return abort(err)
	}

	t := newTableFile(f, path, format, rows, tuplesPerChunk, seed, tableVersion)
	// Reserve the checksum table with zeros; the real sums are computed as
	// the stripes stream out and written in place before the final sync, so
	// a crash mid-create can never leave valid-looking checksums.
	sumBytes := make([]byte, t.NumPages()*8)
	if _, err := w.Write(sumBytes); err != nil {
		return abort(err)
	}
	vals := make([]int64, tuplesPerChunk)
	stripe := make([]byte, tuplesPerChunk*maxColWidth())
	writeStripe := func(c, j, page int) error {
		buf := stripe[:t.ColStripeBytes(j)]
		fillStripe(gen, seed, c, j, tuplesPerChunk, t.layout.ChunkTuples(c), vals, buf)
		t.sums[page] = pageChecksum(buf)
		_, err := w.Write(buf)
		return err
	}
	if format == DSM {
		for j := 0; j < NumCols; j++ {
			for c := 0; c < t.numChunks; c++ {
				if err := writeStripe(c, j, j*t.numChunks+c); err != nil {
					return abort(err)
				}
			}
		}
	} else {
		for c := 0; c < t.numChunks; c++ {
			for j := 0; j < NumCols; j++ {
				if err := writeStripe(c, j, c*NumCols+j); err != nil {
					return abort(err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		return abort(err)
	}
	for p, sum := range t.sums {
		binary.LittleEndian.PutUint64(sumBytes[p*8:], sum)
	}
	if _, err := f.WriteAt(sumBytes, headerBytes); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	return t, nil
}

// pickScheme chooses the cheapest codec for one column from a sampled
// stripe of its values, falling back to identity (raw stripe bytes) when no
// codec beats the 8-byte words it would replace — the Figure-9 move: pick
// per-column physical widths from the data, once, at create time.
func pickScheme(sample []int64) byte {
	best, bestLen := byte(schemeIdentity), int(8*len(sample))
	for _, s := range []compress.Scheme{compress.PFOR, compress.PFORDelta, compress.PDict} {
		buf, err := compress.EncodeInts(s, sample)
		if err == nil && len(buf) < bestLen {
			best, bestLen = byte(s), len(buf)
		}
	}
	return best
}

// CreateCompressed generates a v4 DSM table file: the same deterministic
// lineitem-like data as CreateFormat(DSM, ...), but each (chunk, column)
// extent is stored compressed under a per-column scheme sampled from the
// first chunk, with per-extent CRCs over the stored bytes, a length
// directory, and persisted per-column zonemap bounds over each chunk's
// valid tuples (the short last chunk's zero padding is excluded from the
// bounds but included in the encoded values, so every extent decodes to
// exactly one fixed-width stripe).
func CreateCompressed(path string, rows, tuplesPerChunk int64, seed uint64) (*TableFile, error) {
	if rows <= 0 || tuplesPerChunk <= 0 {
		return nil, fmt.Errorf("engine: CreateCompressed(rows=%d, tuplesPerChunk=%d)", rows, tuplesPerChunk)
	}
	if err := checkByteOrder(); err != nil {
		return nil, err
	}
	table := tpch.LineitemTable(1)
	table.Rows = rows
	gen := tpch.NewGenerator(table, seed)

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	abort := func(err error) (*TableFile, error) {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	t := newTableFile(f, path, DSM, rows, tuplesPerChunk, seed, tableVersionCompressed)

	// Sample the first chunk of every value column to fix its scheme.
	vals := make([]int64, tuplesPerChunk)
	n0 := t.layout.ChunkTuples(0)
	for j := 0; j < NumCols; j++ {
		if j == ColComment {
			t.schemes[j] = schemeIdentity
			continue
		}
		gen.Column(tpchCols[j], 0, vals[:n0])
		for i := n0; i < tuplesPerChunk; i++ {
			vals[i] = 0
		}
		t.schemes[j] = pickScheme(vals)
	}

	w := bufio.NewWriterSize(f, 1<<20)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], tableMagic)
	binary.LittleEndian.PutUint64(hdr[8:], tableVersionCompressed)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(rows))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(tuplesPerChunk))
	binary.LittleEndian.PutUint64(hdr[32:], seed)
	binary.LittleEndian.PutUint64(hdr[40:], NumCols)
	binary.LittleEndian.PutUint64(hdr[48:], uint64(DSM))
	if _, err := w.Write(hdr[:]); err != nil {
		return abort(err)
	}
	// Reserve every directory (checksums, schemes, extent lengths, zonemaps)
	// with zeros; the real contents are written in place before the final
	// sync, so a crash mid-create can never leave a valid-looking file.
	meta := make([]byte, t.dataOff-headerBytes)
	if _, err := w.Write(meta); err != nil {
		return abort(err)
	}

	for j := range t.zones {
		if j != ColComment {
			t.zones[j] = storage.NewZoneMap(t.numChunks)
		}
	}
	stripe := make([]byte, tuplesPerChunk*maxColWidth())
	for j := 0; j < NumCols; j++ {
		for c := 0; c < t.numChunks; c++ {
			page := int64(j)*int64(t.numChunks) + int64(c)
			buf := stripe[:t.ColStripeBytes(j)]
			nc := t.layout.ChunkTuples(c)
			fillStripe(gen, seed, c, j, tuplesPerChunk, nc, vals, buf)
			stored := buf
			if j != ColComment {
				for i := int64(0); i < nc; i++ {
					t.zones[j].Observe(c, vals[i])
				}
				if t.schemes[j] != schemeIdentity {
					for i := nc; i < tuplesPerChunk; i++ {
						vals[i] = 0
					}
					enc, err := compress.EncodeInts(compress.Scheme(t.schemes[j]), vals)
					if err != nil {
						return abort(err)
					}
					stored = enc
				}
			}
			t.sums[page] = pageChecksum(stored)
			t.extLen[page] = int64(len(stored))
			if _, err := w.Write(stored); err != nil {
				return abort(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return abort(err)
	}
	var off int64
	for p := range t.extOff {
		t.extOff[p] = off
		off += t.extLen[p]
	}

	// Write the real directories in place: checksums, schemes, extent
	// lengths, then the zonemap footer.
	for p, sum := range t.sums {
		binary.LittleEndian.PutUint64(meta[p*8:], sum)
	}
	schemeOff := t.NumPages() * 8
	for j := 0; j < NumCols; j++ {
		meta[schemeOff+int64(j)] = t.schemes[j]
	}
	extOff := schemeOff + schemeTableBytes
	for p, l := range t.extLen {
		binary.LittleEndian.PutUint64(meta[extOff+int64(p)*8:], uint64(l))
	}
	zoneOff := extOff + t.NumPages()*8
	for j := 0; j < NumCols; j++ {
		for c := 0; c < t.numChunks; c++ {
			lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
			if t.zones[j] != nil {
				lo, hi = t.zones[j].Bounds(c)
			}
			e := zoneOff + (int64(j)*int64(t.numChunks)+int64(c))*16
			binary.LittleEndian.PutUint64(meta[e:], uint64(lo))
			binary.LittleEndian.PutUint64(meta[e+8:], uint64(hi))
		}
	}
	if _, err := f.WriteAt(meta, headerBytes); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	return t, nil
}

// newTableFile assembles the in-memory descriptor: layout plus the
// per-format stripe position tables (and, for v4, the empty extent
// directory the creator or opener fills in).
func newTableFile(f *os.File, path string, format Format, rows, tuplesPerChunk int64, seed uint64, version int) *TableFile {
	t := &TableFile{
		f: f, r: f, path: path, rows: rows, tuplesPerChunk: tuplesPerChunk,
		seed: seed, format: format, version: version,
	}
	t.layout = newLayout(format, rows, tuplesPerChunk)
	t.numChunks = t.layout.NumChunks()
	t.dataOff = headerBytes + t.NumPages()*8
	if version == tableVersionCompressed {
		// v4 interposes the scheme table, the per-extent length directory
		// and the zonemap footer between the checksum table and the data.
		t.dataOff += schemeTableBytes + t.NumPages()*8 + int64(NumCols)*int64(t.numChunks)*16
		t.extLen = make([]int64, t.NumPages())
		t.extOff = make([]int64, t.NumPages())
	}
	t.sums = make([]uint64, t.NumPages())
	var off int64
	for j := 0; j < NumCols; j++ {
		t.stripeOff[j] = off
		off += t.ColStripeBytes(j)
	}
	off = 0
	for j := 0; j < NumCols; j++ {
		t.colBase[j] = off
		off += int64(t.numChunks) * t.ColStripeBytes(j)
	}
	return t
}

// Open opens an existing table file and validates it strictly: magic,
// version, column count, format, geometry, exact file size, and a fully
// readable checksum table. Failures come back as typed errors (ErrBadMagic,
// ErrBadVersion, ErrBadGeometry, ErrTruncated) wrapped with path context —
// a torn, truncated, or foreign file is an error, never a panic. A
// big-endian host gets ErrByteOrder: parts are read in place as native
// words.
func Open(path string) (*TableFile, error) {
	if err := checkByteOrder(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: %s: short header (%v): %w", path, err, ErrTruncated)
	}
	if got := binary.LittleEndian.Uint64(hdr[0:]); got != tableMagic {
		f.Close()
		return nil, fmt.Errorf("engine: %s: magic %#x: %w", path, got, ErrBadMagic)
	}
	version := binary.LittleEndian.Uint64(hdr[8:])
	if version != tableVersion && version != tableVersionCompressed {
		f.Close()
		return nil, fmt.Errorf("engine: %s: version %d (want %d or %d): %w", path, version, tableVersion, tableVersionCompressed, ErrBadVersion)
	}
	if nc := binary.LittleEndian.Uint64(hdr[40:]); nc != NumCols {
		f.Close()
		return nil, fmt.Errorf("engine: %s: stores %d columns, want %d: %w", path, nc, NumCols, ErrBadGeometry)
	}
	format := Format(binary.LittleEndian.Uint64(hdr[48:]))
	if format != NSM && format != DSM {
		f.Close()
		return nil, fmt.Errorf("engine: %s: unknown format %d: %w", path, int(format), ErrBadGeometry)
	}
	if version == tableVersionCompressed && format != DSM {
		f.Close()
		return nil, fmt.Errorf("engine: %s: compressed v4 requires DSM, got %s: %w", path, format, ErrBadGeometry)
	}
	rows := int64(binary.LittleEndian.Uint64(hdr[16:]))
	tuplesPerChunk := int64(binary.LittleEndian.Uint64(hdr[24:]))
	// Validate before building the layout: the layout constructors panic on
	// non-positive sizes, and a corrupt header must surface as an error.
	if rows <= 0 || tuplesPerChunk <= 0 {
		f.Close()
		return nil, fmt.Errorf("engine: %s: bad geometry (rows=%d, tuplesPerChunk=%d): %w", path, rows, tuplesPerChunk, ErrBadGeometry)
	}
	t := newTableFile(f, path, format, rows, tuplesPerChunk,
		binary.LittleEndian.Uint64(hdr[32:]), int(version))
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: %s: stat: %w", path, err)
	}
	// The metadata region (checksum table, plus the v4 directories) must be
	// fully present before its contents can be trusted.
	if st.Size() < t.dataOff {
		f.Close()
		return nil, fmt.Errorf("engine: %s: %d bytes, want at least %d of metadata: %w", path, st.Size(), t.dataOff, ErrTruncated)
	}
	meta := make([]byte, t.dataOff-headerBytes)
	if _, err := f.ReadAt(meta, headerBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: %s: checksum table: %v: %w", path, err, ErrTruncated)
	}
	for p := range t.sums {
		t.sums[p] = binary.LittleEndian.Uint64(meta[p*8:])
	}
	want := t.dataOff + int64(t.numChunks)*t.ChunkBytes()
	if t.version == tableVersionCompressed {
		if err := t.loadV4Directories(meta); err != nil {
			f.Close()
			return nil, fmt.Errorf("engine: %s: %w", path, err)
		}
		want = t.dataOff + t.StoredRunBytes(0, int(t.NumPages()))
	}
	if st.Size() < want {
		f.Close()
		return nil, fmt.Errorf("engine: %s: %d bytes, want %d: %w", path, st.Size(), want, ErrTruncated)
	}
	if st.Size() != want {
		f.Close()
		return nil, fmt.Errorf("engine: %s: %d bytes, header promises %d: %w", path, st.Size(), want, ErrBadGeometry)
	}
	return t, nil
}

// loadV4Directories parses and validates the v4 scheme table, extent length
// directory and zonemap footer out of the metadata region (everything
// between the header and the data). Directory inconsistencies are geometry
// errors: nothing here is trusted to size a read or an allocation until it
// has been cross-checked against the fixed stripe geometry.
func (t *TableFile) loadV4Directories(meta []byte) error {
	schemeOff := t.NumPages() * 8
	for j := 0; j < NumCols; j++ {
		s := meta[schemeOff+int64(j)]
		switch {
		case s == schemeIdentity:
		case j == ColComment:
			return fmt.Errorf("comment column scheme %#x (want identity): %w", s, ErrBadGeometry)
		case compress.Scheme(s) == compress.Raw || compress.Scheme(s) == compress.PFOR ||
			compress.Scheme(s) == compress.PFORDelta || compress.Scheme(s) == compress.PDict:
		default:
			return fmt.Errorf("column %d: unknown compression scheme %#x: %w", j, s, ErrBadGeometry)
		}
		t.schemes[j] = s
	}
	extOff := schemeOff + schemeTableBytes
	var off int64
	for p := int64(0); p < t.NumPages(); p++ {
		l := int64(binary.LittleEndian.Uint64(meta[extOff+p*8:]))
		raw := t.PageBytes(p)
		col := t.pageCol(p)
		// Identity extents are exactly one raw stripe; codec extents carry
		// at least a header and never usefully exceed the raw stripe by
		// more than the worst-case codec overhead.
		if t.schemes[col] == schemeIdentity {
			if l != raw {
				return fmt.Errorf("page %d: identity extent %d bytes, want %d: %w", p, l, raw, ErrBadGeometry)
			}
		} else if l <= 0 || l > 2*raw+64 {
			return fmt.Errorf("page %d: extent length %d out of range (raw stripe %d): %w", p, l, raw, ErrBadGeometry)
		}
		t.extLen[p] = l
		t.extOff[p] = off
		off += l
	}
	zoneOff := extOff + t.NumPages()*8
	for j := 0; j < NumCols; j++ {
		if j == ColComment {
			continue
		}
		t.zones[j] = storage.NewZoneMap(t.numChunks)
		for c := 0; c < t.numChunks; c++ {
			e := zoneOff + (int64(j)*int64(t.numChunks)+int64(c))*16
			lo := int64(binary.LittleEndian.Uint64(meta[e:]))
			hi := int64(binary.LittleEndian.Uint64(meta[e+8:]))
			if lo > hi {
				return fmt.Errorf("column %d chunk %d: inverted zonemap bounds [%d, %d]: %w", j, c, lo, hi, ErrBadGeometry)
			}
			t.zones[j].SetBounds(c, lo, hi)
		}
	}
	return nil
}

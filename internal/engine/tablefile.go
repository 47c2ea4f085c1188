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
// for each" table); one shared buffer budget is split between them by
// footprint in core.Manager.Rebalance, re-run at every attach and detach.
// An optional device-bandwidth model
// (ServerConfig.ReadBandwidth) restores the paper's premise — device
// bandwidth as the scarce resource — when the table files sit in the OS
// page cache, where re-reads would otherwise be free.
//
// TableFile (this file) is the storage format, and there is one: a 64-byte
// header, a metadata region sealed by a CRC in the header (per-page
// checksums, per-column schemes, per-page extent lengths, per-column zonemap
// bounds — see docs/ARCHITECTURE.md), then NumChunks × NumCols column stripes of
// deterministic tpch-generated data, each stored either as its raw bytes
// (identity) or under a per-column codec, in one of two physical orders:
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
	"path/filepath"
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
	tableMagic = uint64(0x434f4f504c495645) // "COOPLIVE"
	// fileVersion is the one format this build writes and reads. Every
	// (chunk, column) stripe is an extent stored under its column's scheme —
	// identity (the raw stripe bytes) or a compress.Scheme — with a checksum
	// over the stored bytes, a stored length and persisted zonemap bounds in
	// the metadata region between the header and the data. Readers land
	// every extent as fixed-width words, so everything downstream of the
	// read path sees decoded stripes whatever the file stores. Version 5 is
	// version 4's layout, sealed.
	fileVersion = 5
	headerBytes = 64
	// sealWord is the header word holding the CRC-32C of the header words
	// before it and the metadata region: the page sums guard the data, this
	// what says where and how it is stored and — the zonemap bounds — which
	// chunks a predicate may decide without reading them.
	sealWord = 7
)

// schemeIdentity marks a column whose extents are stored as the raw stripe
// bytes (no codec): every column of a file created without compression, the
// comment filler, and any column where the sampled codecs fail to beat raw.
// It deliberately does not collide with the compress.Scheme space.
const schemeIdentity = 0xFF

// schemeTableBytes is the per-column scheme table size, padded to an
// 8-byte boundary so the extent directory after it stays aligned.
const schemeTableBytes = (NumCols + 7) &^ 7

// crcTable is the CRC32-C (Castagnoli) table behind every page checksum.
// CRC32-C is hardware-accelerated on amd64/arm64 (~30 GB/s vs ~2 GB/s for
// the table-driven CRC64), which is what keeps verification invisible next
// to page-cache read speed. Each sum still occupies a fixed 8-byte slot in
// the file's checksum table (zero-extended), so the layout has room for a
// wider checksum without moving the data region.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pageChecksum is the per-page checksum as stored in the file's table.
func pageChecksum(b []byte) uint64 { return uint64(crc32.Checksum(b, crcTable)) }

// seal is the value of a header's sealWord over that header and meta.
func seal(head, meta []byte) uint64 {
	return uint64(crc32.Update(crc32.Checksum(head[:sealWord*8], crcTable), crcTable, meta))
}

// Typed failure modes of opening and reading table files. Open wraps these
// with path context; match with errors.Is.
var (
	// ErrBadMagic: the file is not a table file at all (zero-filled,
	// foreign, or the header itself was torn).
	ErrBadMagic = errors.New("engine: bad table file magic")
	// ErrBadVersion: a table file, but a format version this build does not
	// read. Table files are a deterministic function of (rows,
	// tuples-per-chunk, seed): remove the file and regenerate it.
	ErrBadVersion = errors.New("engine: unsupported table file version")
	// ErrBadGeometry: header fields that cannot describe a real table
	// (non-positive sizes, wrong column count, unknown format, or a file
	// size that disagrees with the header's geometry).
	ErrBadGeometry = errors.New("engine: bad table file geometry")
	// ErrTruncated: the header promises more bytes than the file holds.
	ErrTruncated = errors.New("engine: truncated table file")
	// ErrChecksum: a page's stored checksum does not match its bytes — a torn
	// write, bit-flip, or corrupted read. Loads verify every page before
	// committing it, so corrupt data never reaches a query kernel; Open
	// verifies the header and metadata region against the seal the same way.
	ErrChecksum = errors.New("engine: page checksum mismatch")
)

// ErrCorrupt re-exports the codec's decode failure: a coded extent whose stored
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

// TableFile is a table stored as a real chunked file: a 64-byte header, the
// metadata region, then NumChunks × NumCols extents in chunk-major (NSM) or
// column-major (DSM) order. Chunk/extent geometry is described by a
// storage.Layout so the ABM schedules over it exactly like a simulated
// table.
//
// The unit of addressing is the page: one (chunk, column) stripe. Page p's
// decoded size depends on its column (PageBytes), its stored size and file
// position on the extent directory; consecutive page indexes are always
// contiguous in the file, so a run of pages can be read with a single
// positioned read (ReadPageRange).
type TableFile struct {
	f              *os.File
	r              io.ReaderAt // page-read path; WrapReader swaps in fault injection
	path           string
	rows           int64
	tuplesPerChunk int64
	seed           uint64
	format         Format
	layout         storage.Layout
	numChunks      int
	dataOff        int64          // data region start: header + metadata region
	stripeOff      [NumCols]int64 // NSM: stripe j's offset within a decoded chunk

	// The metadata region, as loadMeta parsed it. schemes holds each
	// column's compress.Scheme byte (schemeIdentity for raw-stored columns)
	// and coded whether any column has one; sums are the per-page checksums
	// of the stored bytes; extOff[p] is page p's offset within the data
	// region, with one entry past the last page (prefix sums of the stored
	// lengths, so consecutive pages are contiguous and a run coalesces into
	// one read); zones are the per-column chunk bounds (nil for the comment
	// filler, whose bytes are not ordered values).
	schemes [NumCols]byte
	coded   bool
	sums    []uint64
	extOff  []int64
	zones   [NumCols]*storage.ZoneMap
	// storedScratch pools the stored-byte scratch (*[]byte) a coded extent
	// is decoded from: a run read eagerly is read into it, an extent left in
	// the tail of its frame is copied into it at its first read (decodeTail).
	// The decoded values go straight into the caller's words. Identity runs
	// never touch it.
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

// pageStripe returns the chunk and stored column whose stripe is page p:
// pages run column-major in DSM, chunk-major in NSM.
func (t *TableFile) pageStripe(p int64) (chunk, col int) {
	if t.format == DSM {
		return int(p % int64(t.numChunks)), int(p / int64(t.numChunks))
	}
	return int(p / NumCols), int(p % NumCols)
}

// pageCol returns the column a page belongs to.
func (t *TableFile) pageCol(p int64) int {
	_, col := t.pageStripe(p)
	return col
}

// PageBytes returns the size of page p as the engine buffers it: always the
// decoded fixed-width stripe, whatever is stored on disk.
func (t *TableFile) PageBytes(p int64) int64 { return t.ColStripeBytes(t.pageCol(p)) }

// StoredPageBytes returns the bytes page p occupies on disk: PageBytes for
// an identity extent, the coded length otherwise. This is what the device
// (and the -read-mbps bandwidth model) actually pays per page.
func (t *TableFile) StoredPageBytes(p int64) int64 { return t.StoredRunBytes(p, 1) }

// StoredRunBytes sums StoredPageBytes over a run of consecutive pages.
func (t *TableFile) StoredRunBytes(first int64, count int) int64 {
	return t.extOff[first+int64(count)] - t.extOff[first]
}

// Compressed reports whether any column is stored under a codec.
func (t *TableFile) Compressed() bool { return t.coded }

// StoredBytes returns the size of the on-disk data region: the sum of every
// stored extent — NumChunks×ChunkBytes when every column is identity, the
// compressed footprint the ratio reports compare against it otherwise.
func (t *TableFile) StoredBytes() int64 { return t.extOff[t.NumPages()] }

// ColScheme returns the compress.Scheme column col's extents are stored
// under, with ok=false when the column is stored as raw stripe bytes.
func (t *TableFile) ColScheme(col int) (compress.Scheme, bool) {
	if t.schemes[col] == schemeIdentity {
		return 0, false
	}
	return compress.Scheme(t.schemes[col]), true
}

// ZoneMap returns the persisted per-chunk bounds of column col, or nil for
// the one column that carries none (the comment filler, whose bytes are not
// ordered values). The returned map is shared and must not be mutated.
func (t *TableFile) ZoneMap(col int) *storage.ZoneMap {
	if col < 0 || col >= NumCols {
		return nil
	}
	return t.zones[col]
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
	chunk, col = t.pageStripe(p)
	if t.format == NSM {
		col = -1
	}
	return chunk, col
}

// PartFileRange returns the absolute file byte range of one ABM part — the
// seam tests and the CLIs use to aim a persistent fault range at a specific
// (chunk, column) part.
func (t *TableFile) PartFileRange(chunk, col int) (off, size int64) {
	first, count := t.PartPages(chunk, col)
	return t.dataOff + t.extOff[first], t.StoredRunBytes(first, count)
}

// ReadPageRange reads count consecutive pages starting at page first into
// buf (their summed decoded sizes long) with a single positioned read — the
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
	left, err := t.readPageRange(first, count, dst, nil, nil)
	if left > 0 {
		t.decodeTail(dst, left)
	}
	return err
}

// identityRun reports whether every page of the run is stored as its raw
// stripe bytes, read from the file's own scheme table. Only DSM files are
// coded, and there a run of pages spans a run of columns.
func (t *TableFile) identityRun(first int64, count int) bool {
	if !t.coded {
		return true
	}
	for j, last := t.pageCol(first), t.pageCol(first+int64(count)-1); j <= last; j++ {
		if t.schemes[j] != schemeIdentity {
			return false
		}
	}
	return true
}

// extent returns page p's stored bytes within run, the stored bytes of a run
// of pages that starts at page first.
func (t *TableFile) extent(run []byte, first, p int64) []byte {
	return run[t.extOff[p]-t.extOff[first] : t.extOff[p+1]-t.extOff[first]]
}

// lap adds the wall time since start to *d, when the caller collects it.
func lap(d *time.Duration, start time.Time) {
	if d != nil {
		*d += time.Since(start)
	}
}

// scratch draws pooled stored-byte scratch of at least n bytes; the caller
// puts it back.
func (t *TableFile) scratch(n int64) *[]byte {
	sc, _ := t.storedScratch.Get().(*[]byte)
	if sc == nil {
		sc = new([]byte)
	}
	if int64(cap(*sc)) < n {
		*sc = make([]byte, n)
	}
	return sc
}

// readPageRange is the one landing routine — of ReadPageRange's byte
// buffers and of the load path's frames alike: one positioned read of the
// coalesced stored run, a CRC over every extent's stored bytes, and the
// pages in dst. An identity run is read straight into dst and verified in
// place. A run of one coded page whose stored bytes fit in dst — every DSM
// part of a compressed table, bar a column stored as compress.Raw — is read
// into the tail of dst, verified and checked there (compress.Check: every
// structural test the decoder makes), and left for decodeTail: the load
// path leaves it for the part's first reader, ReadPageRange decodes it at
// once. The returned length is its stored bytes. Any other run holding a
// coded extent is read into pooled scratch, checked and decoded into dst,
// and the length returned is zero: dst holds the decoded pages. CRC failures
// surface as ErrChecksum and check failures as ErrCorrupt, both wrapped in a
// *PageError naming the precise page, so the engine retries or quarantines
// exactly the affected part and a corrupt extent can never decode into wrong
// tuples. When verify or decomp are non-nil, the time spent verifying (the
// deferred check included) and decoding is added to them, so the
// instrumented load path can report read, verify and decompress latency
// separately.
func (t *TableFile) readPageRange(first int64, count int, dst []int64, verify, decomp *time.Duration) (int, error) {
	end := first + int64(count)
	var want int64
	for p := first; p < end; p++ {
		want += t.PageBytes(p)
	}
	if int64(len(dst))*8 != want {
		return 0, fmt.Errorf("engine: ReadPageRange buffer %d bytes, want %d", len(dst)*8, want)
	}
	stored := wordBytes(dst)
	n := t.StoredRunBytes(first, count)
	inPlace := t.identityRun(first, count)
	tail := !inPlace && count == 1 && n <= want
	switch {
	case tail:
		stored = stored[want-n:]
	case !inPlace:
		sc := t.scratch(n)
		defer t.storedScratch.Put(sc)
		stored = (*sc)[:n]
	}
	if _, err := t.r.ReadAt(stored, t.dataOff+t.extOff[first]); err != nil {
		return 0, &PageError{Page: first, Err: err}
	}
	start := time.Now()
	for p := first; p < end; p++ {
		if got := pageChecksum(t.extent(stored, first, p)); got != t.sums[p] {
			lap(verify, start)
			chunk, col := t.PagePart(p)
			return 0, &PageError{Page: p, Err: fmt.Errorf("engine: %s page %d (chunk %d, col %d): crc %#x, want %#x: %w",
				t.path, p, chunk, col, got, t.sums[p], ErrChecksum)}
		}
	}
	switch {
	case inPlace:
		lap(verify, start)
		return 0, nil
	case tail:
		err := t.checkExtent(first, stored)
		lap(verify, start)
		if err != nil {
			return 0, err
		}
		return int(n), nil
	}
	lap(verify, start)
	start = time.Now()
	err := t.decodeRun(first, end, dst, stored)
	lap(decomp, start)
	return 0, err
}

// checkExtent checks coded page p's verified stored bytes ext: they must
// pass compress.Check and hold exactly one stripe of values.
func (t *TableFile) checkExtent(p int64, ext []byte) error {
	n, err := compress.Check(ext)
	if err == nil && int64(n) != t.tuplesPerChunk {
		err = fmt.Errorf("decodes to %d values, want %d: %w", n, t.tuplesPerChunk, ErrCorrupt)
	}
	if err != nil {
		chunk, col := t.pageStripe(p)
		return &PageError{Page: p, Err: fmt.Errorf("engine: %s page %d (chunk %d, col %d): decode: %w",
			t.path, p, chunk, col, err)}
	}
	return nil
}

// decodeRun checks and decodes the verified stored bytes of pages
// [first, end) into their words in dst.
func (t *TableFile) decodeRun(first, end int64, dst []int64, stored []byte) error {
	var off int64
	for p := first; p < end; p++ {
		ext := t.extent(stored, first, p)
		n := t.PageBytes(p) / 8
		page := dst[off : off+n]
		off += n
		if t.schemes[t.pageCol(p)] == schemeIdentity {
			copy(wordBytes(page), ext)
			continue
		}
		if err := t.checkExtent(p, ext); err != nil {
			return err
		}
		compress.DecodeChecked(page, ext)
	}
	return nil
}

// decodeTail decodes the coded extent of n stored bytes a deferred
// readPageRange left, checked, in the tail of dst into dst. The extent is
// copied out into pooled scratch first: the decoder's output would overrun
// the bytes it has still to read.
func (t *TableFile) decodeTail(dst []int64, n int) {
	sc := t.scratch(int64(n))
	defer t.storedScratch.Put(sc)
	ext := (*sc)[:n]
	copy(ext, wordBytes(dst)[len(dst)*8-n:])
	compress.DecodeChecked(dst, ext)
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
// buf, zero-padding the short last chunk (in vals too), and returns the
// bounds of the valid values — the chunk's zonemap entry, taken in the loop
// that already visits each value. The comment filler holds no ordered
// values: its bounds are the whole int64 range.
func fillStripe(gen *tpch.Generator, seed uint64, c int, j int, tpc int64, n int64, vals []int64, buf []byte) (lo, hi int64) {
	start := int64(c) * tpc
	w := colWidths[j]
	if j == ColComment {
		lo, hi = math.MinInt64, math.MaxInt64
		words := int(w / 8)
		for i := int64(0); i < n; i++ {
			for k := 0; k < words; k++ {
				binary.LittleEndian.PutUint64(buf[i*w+int64(k)*8:], fillerWord(seed, start+i, k))
			}
		}
	} else {
		lo, hi = math.MaxInt64, math.MinInt64
		gen.Column(tpchCols[j], start, vals[:n])
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[int64(i)*w:], uint64(v))
			lo, hi = min(lo, v), max(hi, v)
		}
		clear(vals[n:])
	}
	clear(buf[n*w:])
	return lo, hi
}

// CreateFormat generates a table file of the given row count at path, every
// column stored as its raw stripe bytes: real TPC-H lineitem-like data from
// the deterministic tpch generator, in chunk-major NSM stripes or
// column-major DSM extents (each column contiguous, so queries read only
// the columns they project). Files are padded to whole chunks (trailing
// rows of the last chunk are zero).
func CreateFormat(path string, format Format, rows, tuplesPerChunk int64, seed uint64) (*TableFile, error) {
	return create(path, format, rows, tuplesPerChunk, seed, false)
}

// CreateCompressed is CreateFormat(DSM) with each column stored under the
// cheapest scheme sampled from its first chunk.
func CreateCompressed(path string, rows, tuplesPerChunk int64, seed uint64) (*TableFile, error) {
	return create(path, DSM, rows, tuplesPerChunk, seed, true)
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

// create is the one writer. It is crash-safe: the file is written and
// synced under the sibling name path+".tmp" — whatever holds that name, a
// stale temporary from a killed create included, is overwritten — renamed
// onto path, and the directory synced, so path either does not change or
// names a complete table. A failure up to the rename leaves path untouched
// and removes the temporary; a failed directory sync after it is returned
// with the complete table left at path.
func create(path string, format Format, rows, tuplesPerChunk int64, seed uint64, compressed bool) (*TableFile, error) {
	switch {
	case rows <= 0 || tuplesPerChunk <= 0:
		return nil, fmt.Errorf("engine: create %s: rows=%d, tuplesPerChunk=%d", path, rows, tuplesPerChunk)
	case format != NSM && format != DSM:
		return nil, fmt.Errorf("engine: create %s: unknown format %d", path, int(format))
	case compressed && format != DSM:
		return nil, fmt.Errorf("engine: create %s: compressed extents are column-major, got %s", path, format)
	}
	if err := checkByteOrder(); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	t := newTableFile(f, path, format, rows, tuplesPerChunk, seed)
	if err = t.write(compressed); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err = syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// metaOffsets returns where the scheme table, the extent-length directory
// and the zonemap footer begin within the metadata region, which starts
// with the checksum table at headerBytes.
func (t *TableFile) metaOffsets() (schemes, extLens, zones int64) {
	schemes = t.NumPages() * 8
	extLens = schemes + schemeTableBytes
	return schemes, extLens, extLens + t.NumPages()*8
}

// write streams the file out — header, metadata region, then every extent in
// page order — and syncs it. Each column's scheme is identity, or with
// compressed the cheapest sampled from its first chunk. Bounds cover each
// chunk's valid tuples only; the short last chunk's zero padding is part of
// the stored values, so every extent decodes to exactly one fixed-width
// stripe. The metadata is reserved with zeros, filled as the extents stream
// out, written in place under the header's seal at the end, and then parsed by
// the loader Open uses, so the descriptor returned is the one a reader gets.
func (t *TableFile) write(compressed bool) error {
	table := tpch.LineitemTable(1)
	table.Rows = t.rows
	gen := tpch.NewGenerator(table, t.seed)
	tpc := t.tuplesPerChunk

	head := make([]byte, t.dataOff)
	for i, v := range []uint64{tableMagic, fileVersion, uint64(t.rows), uint64(tpc), t.seed, NumCols, uint64(t.format)} {
		binary.LittleEndian.PutUint64(head[i*8:], v)
	}
	meta := head[headerBytes:]
	schemeOff, extOff, zoneOff := t.metaOffsets()
	schemes := meta[schemeOff:][:NumCols]
	vals := make([]int64, tpc)
	for j := range schemes {
		schemes[j] = schemeIdentity
		if compressed && j != ColComment {
			n0 := t.layout.ChunkTuples(0)
			gen.Column(tpchCols[j], 0, vals[:n0])
			clear(vals[n0:])
			schemes[j] = pickScheme(vals)
		}
	}

	w := bufio.NewWriterSize(t.f, 1<<20)
	if _, err := w.Write(head); err != nil {
		return err
	}
	stripe := make([]byte, tpc*maxColWidth())
	for p := int64(0); p < t.NumPages(); p++ {
		c, j := t.pageStripe(p)
		ext := stripe[:t.ColStripeBytes(j)]
		lo, hi := fillStripe(gen, t.seed, c, j, tpc, t.layout.ChunkTuples(c), vals, ext)
		if schemes[j] != schemeIdentity {
			var err error
			if ext, err = compress.EncodeInts(compress.Scheme(schemes[j]), vals); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint64(meta[p*8:], pageChecksum(ext))
		binary.LittleEndian.PutUint64(meta[extOff+p*8:], uint64(len(ext)))
		zone := meta[zoneOff+(int64(j)*int64(t.numChunks)+int64(c))*16:]
		binary.LittleEndian.PutUint64(zone, uint64(lo))
		binary.LittleEndian.PutUint64(zone[8:], uint64(hi))
		if _, err := w.Write(ext); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(head[sealWord*8:], seal(head, meta))
	if _, err := t.f.WriteAt(head[sealWord*8:], sealWord*8); err != nil {
		return err
	}
	if err := t.f.Sync(); err != nil {
		return err
	}
	return t.loadMeta(meta)
}

// newTableFile assembles the in-memory descriptor of a file's geometry:
// layout, data-region offset and the NSM stripe positions. The metadata
// region's contents are loadMeta's.
func newTableFile(f *os.File, path string, format Format, rows, tuplesPerChunk int64, seed uint64) *TableFile {
	t := &TableFile{
		f: f, r: f, path: path, rows: rows, tuplesPerChunk: tuplesPerChunk,
		seed: seed, format: format,
	}
	t.layout = newLayout(format, rows, tuplesPerChunk)
	t.numChunks = t.layout.NumChunks()
	_, _, zoneOff := t.metaOffsets()
	t.dataOff = headerBytes + zoneOff + t.NumPages()*16
	var off int64
	for j := 0; j < NumCols; j++ {
		t.stripeOff[j] = off
		off += t.ColStripeBytes(j)
	}
	return t
}

// Open opens an existing table file and validates it strictly: magic,
// version, column count, format, geometry, the seal, every directory of the
// metadata region and the exact file size. Failures come back as typed errors
// (ErrBadMagic, ErrBadVersion, ErrBadGeometry, ErrTruncated, ErrChecksum)
// wrapped with path context — a torn, truncated, or foreign file is an error,
// never a panic, and nothing is allocated that the file's own size does not bound.
// A big-endian host gets ErrByteOrder: parts are read in place as native
// words.
func Open(path string) (*TableFile, error) {
	if err := checkByteOrder(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := openFile(f, path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: %s: %w", path, err)
	}
	return t, nil
}

func openFile(f *os.File, path string) (*TableFile, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("short header (%v): %w", err, ErrTruncated)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[i*8:]) }
	if got := word(0); got != tableMagic {
		return nil, fmt.Errorf("magic %#x: %w", got, ErrBadMagic)
	}
	if v := word(1); v != fileVersion {
		return nil, fmt.Errorf("format version %d, this build reads only %d: remove the file and regenerate it: %w", v, fileVersion, ErrBadVersion)
	}
	if nc := word(5); nc != NumCols {
		return nil, fmt.Errorf("stores %d columns, want %d: %w", nc, NumCols, ErrBadGeometry)
	}
	format := Format(word(6))
	if format != NSM && format != DSM {
		return nil, fmt.Errorf("unknown format %d: %w", int(format), ErrBadGeometry)
	}
	rows, tuplesPerChunk := int64(word(2)), int64(word(3))
	// Validate before building the layout: the layout constructors panic on
	// non-positive sizes, and a corrupt header must surface as an error.
	if rows <= 0 || tuplesPerChunk <= 0 {
		return nil, fmt.Errorf("bad geometry (rows=%d, tuplesPerChunk=%d): %w", rows, tuplesPerChunk, ErrBadGeometry)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("stat: %w", err)
	}
	// Nor may the header size anything before the file is seen to hold it:
	// every chunk has an entry in each directory of the metadata region and
	// one identity stripe of the comment filler in the data, so the file's
	// size bounds both the chunk count and the chunk size (compared by
	// division: a torn header's products overflow).
	chunks := (rows-1)/tuplesPerChunk + 1
	if room := st.Size() - headerBytes - schemeTableBytes; chunks > room/(NumCols*32) || tuplesPerChunk > room/maxColWidth() {
		return nil, fmt.Errorf("%d bytes cannot hold %d chunks of %d tuples: %w", st.Size(), chunks, tuplesPerChunk, ErrTruncated)
	}
	t := newTableFile(f, path, format, rows, tuplesPerChunk, word(4))
	meta := make([]byte, t.dataOff-headerBytes)
	if _, err := f.ReadAt(meta, headerBytes); err != nil {
		return nil, fmt.Errorf("metadata region: %v: %w", err, ErrTruncated)
	}
	if got := seal(hdr[:], meta); got != word(sealWord) {
		return nil, fmt.Errorf("header and metadata region: crc %#x, want %#x: %w", got, word(sealWord), ErrChecksum)
	}
	if err := t.loadMeta(meta); err != nil {
		return nil, err
	}
	if want := t.dataOff + t.StoredBytes(); st.Size() < want {
		return nil, fmt.Errorf("%d bytes, want %d: %w", st.Size(), want, ErrTruncated)
	} else if st.Size() != want {
		return nil, fmt.Errorf("%d bytes, header promises %d: %w", st.Size(), want, ErrBadGeometry)
	}
	return t, nil
}

// loadMeta parses and validates the metadata region (everything between the
// header and the data): checksum table, scheme table, extent-length
// directory, zonemap footer. Inconsistencies are geometry errors: nothing
// here is trusted to size a read or an allocation until it has been
// cross-checked against the fixed stripe geometry.
func (t *TableFile) loadMeta(meta []byte) error {
	schemeOff, extOff, zoneOff := t.metaOffsets()
	for j := 0; j < NumCols; j++ {
		s := meta[schemeOff+int64(j)]
		switch {
		case s == schemeIdentity:
		case t.format == NSM:
			return fmt.Errorf("NSM column %d: scheme %#x (NSM stripes are identity): %w", j, s, ErrBadGeometry)
		case j == ColComment:
			return fmt.Errorf("comment column scheme %#x (want identity): %w", s, ErrBadGeometry)
		case compress.Scheme(s) == compress.Raw || compress.Scheme(s) == compress.PFOR ||
			compress.Scheme(s) == compress.PFORDelta || compress.Scheme(s) == compress.PDict:
			t.coded = true
		default:
			return fmt.Errorf("column %d: unknown compression scheme %#x: %w", j, s, ErrBadGeometry)
		}
		t.schemes[j] = s
	}
	t.sums = make([]uint64, t.NumPages())
	t.extOff = make([]int64, t.NumPages()+1)
	for p := int64(0); p < t.NumPages(); p++ {
		t.sums[p] = binary.LittleEndian.Uint64(meta[p*8:])
		l := int64(binary.LittleEndian.Uint64(meta[extOff+p*8:]))
		raw := t.PageBytes(p)
		// Identity extents are exactly one raw stripe; codec extents carry
		// at least a header and never usefully exceed the raw stripe by
		// more than the worst-case codec overhead.
		if t.schemes[t.pageCol(p)] == schemeIdentity {
			if l != raw {
				return fmt.Errorf("page %d: identity extent %d bytes, want %d: %w", p, l, raw, ErrBadGeometry)
			}
		} else if l <= 0 || l > 2*raw+64 {
			return fmt.Errorf("page %d: extent length %d out of range (raw stripe %d): %w", p, l, raw, ErrBadGeometry)
		}
		t.extOff[p+1] = t.extOff[p] + l
	}
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

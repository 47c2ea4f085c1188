package engine

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coopscan/internal/exec"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// newTestFile creates a small NSM table file in a test temp dir.
func newTestFile(t testing.TB, rows, tuplesPerChunk int64, seed uint64) *TableFile {
	return newTestFileFormat(t, NSM, rows, tuplesPerChunk, seed)
}

// newTestFileFormat creates a small table file of the given format, every
// column identity.
func newTestFileFormat(t testing.TB, format Format, rows, tuplesPerChunk int64, seed uint64) *TableFile {
	t.Helper()
	tf, err := CreateFormat(filepath.Join(t.TempDir(), "live.tbl"), format, rows, tuplesPerChunk, seed)
	if err != nil {
		t.Fatalf("CreateFormat(%v): %v", format, err)
	}
	t.Cleanup(func() { tf.Close() })
	return tf
}

// newTestFileCompressed creates a small compressed DSM table file.
func newTestFileCompressed(t testing.TB, rows, tuplesPerChunk int64, seed uint64) *TableFile {
	t.Helper()
	tf, err := CreateCompressed(filepath.Join(t.TempDir(), "live.tbl"), rows, tuplesPerChunk, seed)
	if err != nil {
		t.Fatalf("CreateCompressed: %v", err)
	}
	t.Cleanup(func() { tf.Close() })
	return tf
}

// storedShapes are the three shapes the one format stores a table in — an
// NSM file and a DSM file of identity columns, whose parts are read in
// place, and a DSM file of coded columns, decoded into the frame — and the
// table the format's tests are driven over.
var storedShapes = []struct {
	name   string
	create func(t testing.TB, rows, tpc int64, seed uint64) *TableFile
}{
	{"nsm", newTestFile},
	{"dsm", func(t testing.TB, rows, tpc int64, seed uint64) *TableFile {
		return newTestFileFormat(t, DSM, rows, tpc, seed)
	}},
	{"dsm-compressed", newTestFileCompressed},
}

// wantStripe renders the expected bytes of (chunk, col) straight from the
// generators, independent of the file writer.
func wantStripe(t testing.TB, tf *TableFile, c, j int) []byte {
	t.Helper()
	table := tpch.LineitemTable(1)
	table.Rows = tf.Rows()
	gen := tpch.NewGenerator(table, tf.Seed())
	buf := make([]byte, tf.ColStripeBytes(j))
	vals := make([]int64, tf.TuplesPerChunk())
	fillStripe(gen, tf.Seed(), c, j, tf.TuplesPerChunk(), tf.Layout().ChunkTuples(c), vals, buf)
	return buf
}

// stripePage is the page holding the stripe of (chunk c, column j).
func stripePage(tf *TableFile, c, j int) int64 {
	first, _ := tf.PartPages(c, partColFor(tf.Format(), j))
	if tf.Format() == NSM {
		first += int64(j) // stripe j within the chunk's run
	}
	return first
}

// TestTableFileRoundTrip: in every stored shape, fresh from the writer and
// reopened, the header fields survive and every stripe decodes to exactly
// the generator's values (zero-padded in the short last chunk), addressed
// through the format's page mapping.
func TestTableFileRoundTrip(t *testing.T) {
	const rows, tpc = 10_000, 1024
	for _, shape := range storedShapes {
		t.Run(shape.name, func(t *testing.T) {
			tf := shape.create(t, rows, tpc, 42)
			if got := tf.NumChunks(); got != 10 {
				t.Fatalf("NumChunks = %d, want 10", got)
			}
			re, err := Open(tf.Path())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer re.Close()
			if re.Rows() != rows || re.TuplesPerChunk() != tpc || re.Seed() != 42 || re.Format() != tf.Format() {
				t.Fatalf("reopened meta = (%d, %d, %d, %v)", re.Rows(), re.TuplesPerChunk(), re.Seed(), re.Format())
			}
			if re.Layout().Columnar() != (tf.Format() == DSM) {
				t.Fatalf("%v file reopened with Columnar() = %v", tf.Format(), re.Layout().Columnar())
			}
			if _, count := re.PartPages(0, partColFor(tf.Format(), 0)); tf.Format() == NSM && count != NumCols {
				t.Fatalf("NSM PartPages count = %d, want %d", count, NumCols)
			}
			if re.Compressed() != (shape.name == "dsm-compressed") || re.Compressed() != tf.Compressed() {
				t.Fatalf("Compressed() = %v created, %v reopened", tf.Compressed(), re.Compressed())
			}
			if !re.Compressed() && re.StoredBytes() != int64(re.NumChunks())*re.ChunkBytes() {
				t.Fatalf("identity file stores %d bytes, want %d", re.StoredBytes(), int64(re.NumChunks())*re.ChunkBytes())
			}
			for _, f := range []*TableFile{tf, re} {
				for c := 0; c < f.NumChunks(); c++ {
					for j := 0; j < NumCols; j++ {
						page := stripePage(f, c, j)
						buf := make([]byte, f.PageBytes(page))
						if err := f.ReadPageRange(page, 1, buf); err != nil {
							t.Fatalf("ReadPageRange(%d,%d): %v", c, j, err)
						}
						if string(buf) != string(wantStripe(t, f, c, j)) {
							t.Fatalf("chunk %d col %d: stripe bytes differ", c, j)
						}
					}
				}
			}
		})
	}
}

// partColFor maps a stored column to its ABM part column under a format.
func partColFor(format Format, j int) int {
	if format == DSM {
		return j
	}
	return -1
}

// TestOpenRejectsCorruptGeometry pins that a corrupt header surfaces as an
// error, not a panic inside the layout constructors.
func TestOpenRejectsCorruptGeometry(t *testing.T) {
	tf := newTestFile(t, 2_000, 500, 13)
	tf.Close()
	raw, err := os.ReadFile(tf.Path())
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(raw[24:], 0) // tuplesPerChunk = 0
	bad := filepath.Join(t.TempDir(), "corrupt.tbl")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("Open accepted a zero tuplesPerChunk header")
	} else if !strings.Contains(err.Error(), "bad geometry") {
		t.Fatalf("Open error = %v, want bad-geometry", err)
	}
}

// TestTableFilePageGeometry pins the page-addressing invariants the load
// path relies on: consecutive pages are contiguous in the file (so runs
// coalesce into one pread), an identity page stores exactly its decoded
// bytes, and the DSM layout's extents match PartPages.
func TestTableFilePageGeometry(t *testing.T) {
	for _, format := range []Format{NSM, DSM} {
		tf := newTestFileFormat(t, format, 5_000, 512, 3)
		var off int64
		for p := int64(0); p < tf.NumPages(); p++ {
			if got := tf.extOff[p]; got != off {
				t.Fatalf("%v page %d at offset %d, want %d (pages not contiguous)", format, p, got, off)
			}
			off += tf.PageBytes(p)
		}
		if format == DSM {
			d := tf.Layout().(*storage.DSMLayout)
			for c := 0; c < tf.NumChunks(); c++ {
				for j := 0; j < NumCols; j++ {
					e := d.ExtentOf(c, j)
					if e.Size != tf.ColStripeBytes(j) {
						t.Fatalf("DSM extent (%d,%d) size %d, want stripe %d", c, j, e.Size, tf.ColStripeBytes(j))
					}
					first, _ := tf.PartPages(c, j)
					if got := tf.extOff[first]; got != e.Pos {
						t.Fatalf("DSM extent (%d,%d) at %d, file page at %d", c, j, e.Pos, got)
					}
				}
			}
		}
	}
}

// TestTableFileCoalescedRead checks ReadPageRange returns the same bytes as
// per-page reads, across stripes of different widths.
func TestTableFileCoalescedRead(t *testing.T) {
	tf := newTestFileFormat(t, NSM, 4_000, 500, 11)
	first, count := tf.PartPages(2, -1)
	var total int64
	for p := first; p < first+int64(count); p++ {
		total += tf.PageBytes(p)
	}
	slab := make([]byte, total)
	if err := tf.ReadPageRange(first, count, slab); err != nil {
		t.Fatalf("ReadPageRange: %v", err)
	}
	var off int64
	for p := first; p < first+int64(count); p++ {
		n := tf.PageBytes(p)
		buf := make([]byte, n)
		if err := tf.ReadPageRange(p, 1, buf); err != nil {
			t.Fatalf("ReadPageRange(%d): %v", p, err)
		}
		if string(buf) != string(slab[off:off+n]) {
			t.Fatalf("page %d differs between coalesced and single read", p)
		}
		off += n
	}
}

// readChunkDataCols assembles a ChunkData straight from the file (bypassing
// the engine) for kernel verification, delivering the requested columns: each
// stripe is read as bytes through the public ReadPageRange, which decodes
// eagerly, and viewed as the words of a decoded frame through the same alias
// helper the load path's frames use.
func readChunkDataCols(t testing.TB, tf *TableFile, c int, cols storage.ColSet) ChunkData {
	t.Helper()
	parts := make([]*frame, NumCols)
	cols.Each(func(j int) {
		stripe := make([]byte, tf.ColStripeBytes(j))
		if err := tf.ReadPageRange(stripePage(tf, c, j), 1, stripe); err != nil {
			t.Fatalf("ReadPageRange: %v", err)
		}
		vals, err := bytesWords(stripe)
		if err != nil {
			t.Fatal(err)
		}
		parts[j] = &frame{vals: vals}
		parts[j].decoded.Store(true)
	})
	return ChunkData{parts: parts, cols: cols, tuples: tf.Layout().ChunkTuples(c)}
}

// readChunkData is readChunkDataCols over every stored column.
func readChunkData(t testing.TB, tf *TableFile, c int) ChunkData {
	return readChunkDataCols(t, tf, c, storage.AllCols(NumCols))
}

func TestKernelsMatchExec(t *testing.T) {
	const rows, tpc = 20_000, 1000
	tf := newTestFile(t, rows, tpc, 7)
	table := tpch.LineitemTable(1)
	table.Rows = rows
	gen := tpch.NewGenerator(table, 7)

	pred := exec.DefaultQ6()
	var liveQ6, simQ6 exec.Q6Result
	liveQ1, simQ1 := make(exec.Q1Result), make(exec.Q1Result)
	for c := 0; c < tf.NumChunks(); c++ {
		d := readChunkData(t, tf, c)
		start, n := int64(c)*tpc, tf.Layout().ChunkTuples(c)
		liveQ6.Add(Q6Chunk(d, pred))
		simQ6.Add(exec.Q6Chunk(gen, start, n, pred))
		liveQ1.Merge(Q1Chunk(d, 700, 2))
		simQ1.Merge(exec.Q1Chunk(gen, start, n, 700, 2))
	}
	if liveQ6 != simQ6 {
		t.Errorf("Q6 over file = %+v, over generator = %+v", liveQ6, simQ6)
	}
	if len(liveQ1) != len(simQ1) {
		t.Fatalf("Q1 groups: %d live vs %d sim", len(liveQ1), len(simQ1))
	}
	for k, g := range simQ1 {
		lg, ok := liveQ1[k]
		if !ok || *lg != *g {
			t.Errorf("Q1 group %v: live %+v, sim %+v", k, lg, g)
		}
	}
}

// TestKernelsPartialColumnsDSM golden-checks the kernels over DSM files
// delivering only their projection — the exact ChunkData shape the live DSM
// path hands to onChunk — against the generator-backed exec kernels.
func TestKernelsPartialColumnsDSM(t *testing.T) {
	const rows, tpc = 20_000, 1000
	tf := newTestFileFormat(t, DSM, rows, tpc, 7)
	table := tpch.LineitemTable(1)
	table.Rows = rows
	gen := tpch.NewGenerator(table, 7)

	pred := exec.DefaultQ6()
	var liveQ6, simQ6 exec.Q6Result
	liveQ1, simQ1 := make(exec.Q1Result), make(exec.Q1Result)
	for c := 0; c < tf.NumChunks(); c++ {
		start, n := int64(c)*tpc, tf.Layout().ChunkTuples(c)
		d6 := readChunkDataCols(t, tf, c, Q6Cols())
		if d6.Has(ColTax) || d6.Col(ColTax) != nil {
			t.Fatal("Q6 chunk data delivered an undeclared column")
		}
		liveQ6.Add(Q6Chunk(d6, pred))
		simQ6.Add(exec.Q6Chunk(gen, start, n, pred))
		liveQ1.Merge(Q1Chunk(readChunkDataCols(t, tf, c, Q1Cols()), 700, 2))
		simQ1.Merge(exec.Q1Chunk(gen, start, n, 700, 2))
	}
	if liveQ6 != simQ6 {
		t.Errorf("partial-column Q6 over DSM file = %+v, over generator = %+v", liveQ6, simQ6)
	}
	for k, g := range simQ1 {
		lg, ok := liveQ1[k]
		if !ok || *lg != *g {
			t.Errorf("Q1 group %v: live %+v, sim %+v", k, lg, g)
		}
	}
}

// TestCommentFillerRoundTrip verifies the comment-sized filler column's
// deterministic content (the one column with no tpch generator).
func TestCommentFillerRoundTrip(t *testing.T) {
	tf := newTestFileFormat(t, DSM, 2_000, 512, 99)
	first, _ := tf.PartPages(1, ColComment)
	buf := make([]byte, tf.ColStripeBytes(ColComment))
	if err := tf.ReadPageRange(first, 1, buf); err != nil {
		t.Fatal(err)
	}
	w := ColWidth(ColComment)
	words := int(w / 8)
	for i := int64(0); i < tf.Layout().ChunkTuples(1); i++ {
		row := tf.TuplesPerChunk() + i
		for k := 0; k < words; k++ {
			got := binary.LittleEndian.Uint64(buf[i*w+int64(k)*8:])
			if want := fillerWord(99, row, k); got != want {
				t.Fatalf("filler word (row %d, k %d) = %#x, want %#x", row, k, got, want)
			}
		}
	}
}

// The ABM derives its relevance chunk cost from the layout's full-chunk
// bytes at 1 GB/s: for a table file those must be the decoded chunk the
// engine loads, on every format.
func TestLayoutFullChunkIsChunkBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		tf   *TableFile
	}{
		{"nsm", newTestFileFormat(t, NSM, 8_000, 1000, 7)},
		{"dsm", newTestFileFormat(t, DSM, 8_000, 1000, 7)},
		{"compressed-dsm", newTestFileCompressed(t, 8_000, 1000, 7)},
	} {
		if n := tc.tf.Layout().Table().NumColumns(); n != NumCols {
			t.Errorf("%s: layout has %d columns, the file %d", tc.name, n, NumCols)
		}
		if got, want := tc.tf.Layout().ChunkBytes(0, storage.AllCols(NumCols)), tc.tf.ChunkBytes(); got != want {
			t.Errorf("%s: layout full chunk = %d bytes, ChunkBytes = %d", tc.name, got, want)
		}
	}
}

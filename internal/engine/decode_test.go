package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"coopscan/internal/colstore/compress"
	"coopscan/internal/core"
	"coopscan/internal/exec"
	"coopscan/internal/storage"
)

// The deferred decode: a coded DSM part lands checked but undecoded, and the
// first scan to read it decodes it, once per residency.

// codedParts counts the parts of cols on tf whose extents are coded.
func codedParts(tf *TableFile, cols storage.ColSet) (n int64) {
	cols.Each(func(col int) {
		if _, coded := tf.ColScheme(col); coded {
			n += int64(tf.NumChunks())
		}
	})
	return n
}

// tableStats returns the one table's stats of srv.
func tableStats(t *testing.T, srv *Server) TableStats {
	t.Helper()
	st := srv.Stats()
	if len(st.Tables) != 1 {
		t.Fatalf("%d tables in stats, want 1", len(st.Tables))
	}
	return st.Tables[0]
}

// TestDeferredDecodeUnreadParts: a scan whose onChunk reads nothing decodes
// nothing, and every coded part it loaded leaves residency counted unread. A
// scan that reads the resident parts afterwards decodes each once, with no
// reload, and gets for every (chunk, column) exactly what ReadPageRange
// decodes eagerly — through Col, Ints and ColCRC alike.
func TestDeferredDecodeUnreadParts(t *testing.T) {
	tf := newTestFileCompressed(t, 8_000, 1000, 61)
	all := storage.AllCols(NumCols)
	coded := codedParts(tf, all)
	if coded == 0 {
		t.Fatal("no coded column")
	}
	cfg := ServerConfig{Policy: core.Relevance, BufferBytes: int64(tf.NumChunks()) * tf.ChunkBytes()}
	n := tf.NumChunks()

	srv := newTestServer(t, cfg, tf)
	if _, err := srv.Scan(0, "blind", rangeSet(0, n), all, nil); err != nil {
		t.Fatal(err)
	}
	if ts := tableStats(t, srv); ts.PartsDecoded != 0 || ts.PartsUnread != 0 {
		t.Fatalf("after a scan that read nothing: %d parts decoded, %d unread, want 0 and 0 (all still resident)", ts.PartsDecoded, ts.PartsUnread)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if ts := tableStats(t, srv); ts.PartsDecoded != 0 || ts.PartsUnread != coded {
		t.Fatalf("after shutdown: %d parts decoded, %d unread, want 0 and %d", ts.PartsDecoded, ts.PartsUnread, coded)
	}

	srv = newTestServer(t, cfg, tf)
	if _, err := srv.Scan(0, "blind", rangeSet(0, n), all, nil); err != nil {
		t.Fatal(err)
	}
	misses := srv.Stats().Pool.Misses
	var mismatch error
	if _, err := srv.Scan(0, "reader", rangeSet(0, n), all, func(c int, d ChunkData) {
		for col := 0; col < NumCols && mismatch == nil; col++ {
			want := make([]byte, tf.ColStripeBytes(col))
			if err := tf.ReadPageRange(stripePage(tf, c, col), 1, want); err != nil {
				mismatch = err
				return
			}
			// Half the columns are first read for their receipt sum, half
			// for their values: either read decodes the part.
			valid, crcFirst := want[:d.Tuples()*ColWidth(col)], col%2 == 0
			var crc uint32
			if crcFirst {
				crc = d.ColCRC(col)
			}
			same := bytes.Equal(d.Col(col), want) && (ColWidth(col) != 8 || bytes.Equal(wordBytes(d.Ints(col)), valid))
			if !crcFirst {
				crc = d.ColCRC(col)
			}
			if !same || crc != crc32.ChecksumIEEE(valid) {
				mismatch = fmt.Errorf("chunk %d %s: values equal %v, receipt sum %#x, want %#x",
					c, colNames[col], same, crc, crc32.ChecksumIEEE(valid))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if mismatch != nil {
		t.Fatalf("reader scan against ReadPageRange: %v", mismatch)
	}
	if got := srv.Stats().Pool.Misses; got != misses {
		t.Fatalf("the reader scan loaded %d parts, want none: it should decode the resident ones", got-misses)
	}
	if ts := tableStats(t, srv); ts.PartsDecoded != coded || ts.PartsUnread != 0 {
		t.Fatalf("after the reader scan: %d parts decoded, %d unread, want %d and 0", ts.PartsDecoded, ts.PartsUnread, coded)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if ts := tableStats(t, srv); ts.PartsUnread != 0 {
		t.Fatalf("after shutdown: %d parts unread, want 0: every part was read", ts.PartsUnread)
	}
}

// TestDeferredDecodeConcurrentReaders: sixteen scans delivered one coded part
// read it at the same moment. Every one sees the same vector, the part's
// frame, holding the part's values, and the part counts one decode.
func TestDeferredDecodeConcurrentReaders(t *testing.T) {
	tf := newTestFileCompressed(t, 2_000, 1000, 62)
	if _, coded := tf.ColScheme(ColShipDate); !coded {
		t.Fatal("shipdate unexpectedly identity")
	}
	want := make([]byte, tf.ColStripeBytes(ColShipDate))
	if err := tf.ReadPageRange(stripePage(tf, 0, ColShipDate), 1, want); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	const readers = 16
	var arrived, done sync.WaitGroup
	arrived.Add(readers)
	done.Add(readers)
	start := make(chan struct{})
	seen := make([]*int64, readers)
	errs := make(chan error, readers)
	for i := range readers {
		go func() {
			defer done.Done()
			_, err := srv.Scan(0, "reader", rangeSet(0, 1), storage.Cols(ColShipDate), func(_ int, d ChunkData) {
				arrived.Done()
				<-start
				v := d.Ints(ColShipDate)
				seen[i] = &v[0]
				if !bytes.Equal(wordBytes(v), want[:d.Tuples()*8]) {
					errs <- errors.New("a reader saw other values")
				}
			})
			if err != nil {
				errs <- err
			}
		}()
	}
	waited := make(chan struct{})
	go func() { arrived.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("the readers were never all inside their delivery of the part at once")
	}
	close(start)
	done.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, p := range seen {
		if p != seen[0] {
			t.Errorf("reader %d read a vector at %p, reader 0 at %p: not the part's one frame", i, p, seen[0])
		}
	}
	if ts := tableStats(t, srv); ts.PartsDecoded != 1 {
		t.Errorf("%d decodes of the one part, want 1", ts.PartsDecoded)
	}
	if m := srv.Stats().Pool.Misses; m != 1 {
		t.Errorf("%d loads, want 1", m)
	}
}

// TestDeferredDecodeCheckedAtLoad forges extents whose stored bytes still
// pass their CRC but that no decoder may run over: a PDICT code at its entry
// count on l_returnflag, and a PFOR exception at position n on l_shipdate
// (stored PFOR-DELTA at this chunk size: the same exception list).
// The load's check refuses each with ErrCorrupt, so the load retries and
// quarantines as a checksum failure does, the scan fails with
// ErrChunkUnavailable, and the chunk is never delivered.
func TestDeferredDecodeCheckedAtLoad(t *testing.T) {
	tf := newTestFileCompressed(t, 8_000, 1000, 63)
	tpc := int(tf.TuplesPerChunk())
	cases := []struct {
		name    string
		col     int
		schemes []compress.Scheme
		// damage forges ext; false when this extent cannot carry the damage.
		damage func(ext []byte) bool
	}{
		{"pdict code past the dictionary", ColReturnFlag, []compress.Scheme{compress.PDict}, func(ext []byte) bool {
			const hdr = 10
			dn := int(binary.LittleEndian.Uint64(ext[hdr:]))
			if width := ext[1]; dn >= 1<<width {
				return false // every code the width holds is an entry
			}
			codes := ext[hdr+8+8*dn:]
			codes[len(codes)/2] = 0xff // four codes of 3 at width 2, two of 15 at 4
			return true
		}},
		{"pfor exception past the stripe", ColShipDate, []compress.Scheme{compress.PFOR, compress.PFORDelta}, func(ext []byte) bool {
			const hdr = 10
			nexc := binary.LittleEndian.Uint32(ext[hdr+8:])
			if nexc == 0 {
				return false
			}
			packed := (tpc*int(ext[1]) + 7) / 8
			binary.LittleEndian.PutUint32(ext[hdr+12+packed:], uint32(tpc))
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if s, coded := tf.ColScheme(tc.col); !coded || !slices.Contains(tc.schemes, s) {
				t.Fatalf("%s stored as %v (coded %v), want one of %v", colNames[tc.col], s, coded, tc.schemes)
			}
			bad := -1
			path := mutatedCopy(t, tf, func(raw []byte) []byte {
				for c := 1; c < tf.NumChunks() && bad < 0; c++ {
					off, size := tf.PartFileRange(c, tc.col)
					if ext := raw[off : off+size]; tc.damage(ext) {
						bad = c
						page, _ := tf.PartPages(c, tc.col)
						binary.LittleEndian.PutUint64(raw[headerBytes+page*8:], pageChecksum(ext))
					}
				}
				return reseal(tf, raw)
			})
			if bad < 0 {
				t.Fatalf("no extent of %s can carry the damage", colNames[tc.col])
			}
			forged, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer forged.Close()
			srv := newTestServer(t, ServerConfig{
				Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes(),
				LoadRetries: 1, RetryBackoff: 50 * time.Microsecond,
			}, forged)
			var delivered []int
			_, err = srv.Scan(0, "over-forgery", rangeSet(0, tf.NumChunks()), storage.Cols(tc.col), func(c int, d ChunkData) {
				delivered = append(delivered, c)
				d.Ints(tc.col)
			})
			if !errors.Is(err, ErrChunkUnavailable) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan over the forged chunk %d: err = %v, want ErrChunkUnavailable wrapping ErrCorrupt", bad, err)
			}
			for _, c := range delivered {
				if c == bad {
					t.Fatalf("the forged chunk %d was delivered", bad)
				}
			}
			st := srv.Stats()
			if st.Faults.Retries == 0 || st.Faults.ChecksumErrors < 2 || st.Faults.QuarantinedParts != 1 {
				t.Errorf("faults %+v, want a retry, both attempts refused, one part quarantined", st.Faults)
			}
		})
	}
}

// withRawColumn rewrites tf's file with column col's extents stored under
// compress.Raw — a header and the eight bytes of every value, more than the
// frame the part lands in — and opens the copy. The writer never picks Raw;
// a file may still hold it.
func withRawColumn(t *testing.T, tf *TableFile, col int) *TableFile {
	t.Helper()
	old, err := os.ReadFile(tf.Path())
	if err != nil {
		t.Fatal(err)
	}
	head := append([]byte(nil), old[:tf.dataOff]...)
	meta := head[headerBytes:]
	schemeOff, extOff, _ := tf.metaOffsets()
	meta[schemeOff+int64(col)] = byte(compress.Raw)
	var data []byte
	for p := int64(0); p < tf.NumPages(); p++ {
		ext := old[tf.dataOff+tf.extOff[p] : tf.dataOff+tf.extOff[p+1]]
		if tf.pageCol(p) == col {
			stripe := make([]byte, tf.PageBytes(p))
			if err := tf.ReadPageRange(p, 1, stripe); err != nil {
				t.Fatal(err)
			}
			vals, _ := bytesWords(stripe)
			if ext, err = compress.EncodeInts(compress.Raw, vals); err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(meta[p*8:], pageChecksum(ext))
			binary.LittleEndian.PutUint64(meta[extOff+p*8:], uint64(len(ext)))
		}
		data = append(data, ext...)
	}
	path := filepath.Join(t.TempDir(), "raw-column.tbl")
	if err := os.WriteFile(path, append(reseal(tf, head), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// TestOversizeExtentDecodesAtLoad: a coded extent larger than its frame has
// no tail to wait in, so its load decodes it, and a scan reads back exactly
// the column's values with no decode left to count.
func TestOversizeExtentDecodesAtLoad(t *testing.T) {
	tf := newTestFileCompressed(t, 4_000, 1000, 64)
	re := withRawColumn(t, tf, ColExtendedPrice)
	first, count := re.PartPages(2, ColExtendedPrice)
	if re.StoredRunBytes(first, count) <= re.ColStripeBytes(ColExtendedPrice) {
		t.Fatal("the Raw extent fits its frame")
	}
	f := &frame{vals: make([]int64, re.ColStripeBytes(ColExtendedPrice)/8)}
	left, err := re.readPageRange(first, count, f.vals, nil, nil)
	if err != nil || left != 0 {
		t.Fatalf("deferred read of the Raw part: %d bytes left to decode, err %v; want it decoded at load", left, err)
	}
	if got, want := wordBytes(f.vals), wantStripe(t, tf, 2, ColExtendedPrice); !bytes.Equal(got, want) {
		t.Fatal("the Raw part decoded at load differs from the column's values")
	}
	srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 4 * re.ChunkBytes()}, re)
	var mismatch []int
	if _, err := srv.Scan(0, "raw", rangeSet(0, re.NumChunks()), storage.Cols(ColExtendedPrice), func(c int, d ChunkData) {
		if !bytes.Equal(d.Col(ColExtendedPrice), wantStripe(t, tf, c, ColExtendedPrice)) {
			mismatch = append(mismatch, c)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(mismatch) > 0 {
		t.Fatalf("chunks %v of the Raw column read back wrong", mismatch)
	}
	if ts := tableStats(t, srv); ts.PartsDecoded != 0 || ts.PartsUnread != 0 {
		t.Errorf("%d parts decoded at first read, %d unread, want 0 and 0: the Raw parts land decoded", ts.PartsDecoded, ts.PartsUnread)
	}
}

// TestKernelsDecodeOnlyWhatTheyRead: Q6Chunk and Q1Chunk decide from the
// chunk's bounds before they read a column, so on a compressed table a
// chunk the bounds answer decodes no part, one inside the date range decodes
// every part but its dates, and only a chunk across an end of the range
// decodes all the query's parts. Each query runs on a server of its own,
// whose buffer holds the table, so no part is decoded twice.
func TestKernelsDecodeOnlyWhatTheyRead(t *testing.T) {
	tf := newTestFileCompressed(t, 48_000, 1000, 65)
	n := tf.NumChunks()
	for _, q := range []struct {
		name   string
		cols   storage.ColSet
		kernel func(ChunkData)
	}{
		{"q6", Q6Cols(), func(d ChunkData) { Q6Chunk(d, exec.DefaultQ6()) }},
		{"q1", Q1Cols(), func(d ChunkData) { Q1Chunk(d, 700, 1) }},
	} {
		t.Run(q.name, func(t *testing.T) {
			if coded := codedParts(tf, q.cols); coded != int64(n*q.cols.Count()) {
				t.Fatalf("%d of the %d parts of %v coded: every one must be", coded, n*q.cols.Count(), q.cols)
			}
			srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: int64(n) * tf.ChunkBytes()}, tf)
			if _, err := srv.Scan(0, q.name, rangeSet(0, n), q.cols, func(_ int, d ChunkData) { q.kernel(d) }); err != nil {
				t.Fatal(err)
			}
			ts := tableStats(t, srv)
			if ts.KernelChunksNone == 0 || ts.KernelChunksDateAll == 0 || ts.KernelChunksSome == 0 {
				t.Fatalf("decided none %d, date_all %d, some %d: every shape must occur", ts.KernelChunksNone, ts.KernelChunksDateAll, ts.KernelChunksSome)
			}
			width := int64(q.cols.Count())
			if want := ts.KernelChunksDateAll*(width-1) + ts.KernelChunksSome*width; ts.PartsDecoded != want {
				t.Errorf("%d parts decoded, want %d: none for %d chunks decided none, all but the dates for %d date_all, all for %d some",
					ts.PartsDecoded, want, ts.KernelChunksNone, ts.KernelChunksDateAll, ts.KernelChunksSome)
			}
		})
	}
}

// Compressed (v4) table-file tests: the decompressed page view must be
// byte-identical to a raw DSM file of the same (rows, tpc, seed); stored
// bytes must actually shrink; persisted zonemap bounds must match the
// generator; Open must reject every torn directory with a typed error; and
// corruption of stored extents must surface as ErrChecksum/ErrCorrupt,
// never as decoded garbage.
package engine

import (
	"bytes"
	"encoding/binary"
	"errors"

	"math"
	"os"
	"path/filepath"
	"testing"

	"coopscan/internal/colstore/compress"
)

// newTestFileCompressed creates a small v4 compressed DSM table file in a
// test temp dir.
func newTestFileCompressed(t testing.TB, rows, tuplesPerChunk int64, seed uint64) *TableFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "live-v4.tbl")
	tf, err := CreateCompressed(path, rows, tuplesPerChunk, seed)
	if err != nil {
		t.Fatalf("CreateCompressed: %v", err)
	}
	t.Cleanup(func() { tf.Close() })
	return tf
}

// v4MetaOffsets returns the absolute file offsets of the v4 scheme table,
// extent-length directory and zonemap footer, straight from the layout
// contract (header, sums, schemes, extent lengths, zonemaps, data).
func v4MetaOffsets(tf *TableFile) (schemeOff, extOff, zoneOff int64) {
	schemeOff = headerBytes + tf.NumPages()*8
	extOff = schemeOff + schemeTableBytes
	zoneOff = extOff + tf.NumPages()*8
	return
}

// TestCompressedRoundTrip pins the core v4 contract: every decompressed
// page is byte-identical to the same page of a raw DSM file built from the
// same (rows, tpc, seed), both fresh from Create and after reopening.
func TestCompressedRoundTrip(t *testing.T) {
	const rows, tpc = 20_000, 1000
	raw := newTestFileFormat(t, DSM, rows, tpc, 7)
	v4 := newTestFileCompressed(t, rows, tpc, 7)
	if raw.Compressed() {
		t.Fatal("raw DSM file reports Compressed")
	}
	if !v4.Compressed() {
		t.Fatal("v4 file does not report Compressed")
	}
	if v4.NumChunks() != raw.NumChunks() || v4.NumPages() != raw.NumPages() {
		t.Fatalf("geometry mismatch: v4 (%d chunks, %d pages), raw (%d, %d)",
			v4.NumChunks(), v4.NumPages(), raw.NumChunks(), raw.NumPages())
	}

	checkPages := func(t *testing.T, tf *TableFile) {
		t.Helper()
		for p := int64(0); p < tf.NumPages(); p++ {
			want := make([]byte, raw.PageBytes(p))
			if err := raw.ReadPageRange(p, 1, want); err != nil {
				t.Fatalf("raw ReadPageRange(%d): %v", p, err)
			}
			got := make([]byte, tf.PageBytes(p))
			if err := tf.ReadPageRange(p, 1, got); err != nil {
				t.Fatalf("v4 ReadPageRange(%d): %v", p, err)
			}
			if !bytes.Equal(got, want) {
				c, j := tf.PagePart(p)
				t.Fatalf("page %d (chunk %d, col %s) decompressed bytes differ from raw", p, c, colNames[j])
			}
		}
	}
	checkPages(t, v4)

	re, err := Open(v4.Path())
	if err != nil {
		t.Fatalf("Open(v4): %v", err)
	}
	defer re.Close()
	if !re.Compressed() {
		t.Fatal("reopened v4 file does not report Compressed")
	}
	for j := 0; j < NumCols; j++ {
		ws, wok := v4.ColScheme(j)
		gs, gok := re.ColScheme(j)
		if ws != gs || wok != gok {
			t.Fatalf("col %s scheme (%v, %v) after reopen, want (%v, %v)", colNames[j], gs, gok, ws, wok)
		}
	}
	checkPages(t, re)

	// Coalesced multi-page run reads (the live load path) must agree with
	// the per-page view.
	for c := 0; c < 3; c++ {
		first, _ := v4.PartPages(c, ColShipDate)
		const count = 4
		var runBytes int64
		for p := first; p < first+count; p++ {
			runBytes += v4.PageBytes(p)
		}
		got := make([]byte, runBytes)
		if err := re.ReadPageRange(first, count, got); err != nil {
			t.Fatalf("ReadPageRange(%d, %d): %v", first, count, err)
		}
		var off int64
		for p := first; p < first+count; p++ {
			want := make([]byte, raw.PageBytes(p))
			if err := raw.ReadPageRange(p, 1, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[off:off+int64(len(want))], want) {
				t.Fatalf("run read page %d differs from raw", p)
			}
			off += int64(len(want))
		}
	}
}

// TestCompressedDiskRatio pins the PR's headline number — and is the CI
// compression-smoke assertion: the stored footprint of a v4 file is at most
// half of the raw DSM footprint, both over the whole table and restricted
// to the Q6 projection the FAST kernel actually reads.
func TestCompressedDiskRatio(t *testing.T) {
	const rows, tpc = 96_000, 1000
	v4 := newTestFileCompressed(t, rows, tpc, 5)
	rawTotal := int64(v4.NumChunks()) * v4.ChunkBytes()
	if got := v4.StoredBytes(); 2*got > rawTotal {
		t.Errorf("stored %d of %d raw bytes (ratio %.3f), want <= 0.5",
			got, rawTotal, float64(got)/float64(rawTotal))
	}
	var q6Stored, q6Raw int64
	Q6Cols().Each(func(j int) {
		q6Raw += int64(v4.NumChunks()) * v4.ColStripeBytes(j)
		for c := 0; c < v4.NumChunks(); c++ {
			p, _ := v4.PartPages(c, j)
			q6Stored += v4.StoredPageBytes(p)
		}
	})
	if 2*q6Stored > q6Raw {
		t.Errorf("Q6 columns stored %d of %d raw bytes (ratio %.3f), want <= 0.5",
			q6Stored, q6Raw, float64(q6Stored)/float64(q6Raw))
	}
	// The comment filler is deliberately incompressible and must have been
	// left as an identity extent rather than bloated by a codec.
	if s, ok := v4.ColScheme(ColComment); ok {
		t.Errorf("comment column got codec %v, want identity", s)
	}
	// Accounting invariant: StoredBytes is exactly the sum of the extents.
	if got := v4.StoredRunBytes(0, int(v4.NumPages())); got != v4.StoredBytes() {
		t.Errorf("StoredRunBytes(all) = %d, StoredBytes = %d", got, v4.StoredBytes())
	}
}

// TestCompressedZoneMaps verifies the persisted per-chunk bounds against the
// generator: for every stored column and chunk, the footer's [lo, hi] must
// be exactly the min/max of the values the chunk holds — and the comment
// filler must have no zonemap at all.
func TestCompressedZoneMaps(t *testing.T) {
	const rows, tpc = 20_000, 1000
	v4 := newTestFileCompressed(t, rows, tpc, 11)
	raw := newTestFileFormat(t, DSM, rows, tpc, 11)
	if raw.ZoneMap(ColShipDate) != nil {
		t.Error("raw v3 file has a zonemap")
	}
	if v4.ZoneMap(ColComment) != nil {
		t.Error("comment column has a zonemap")
	}
	re, err := Open(v4.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, tf := range []*TableFile{v4, re} {
		for j := 0; j < NumCols; j++ {
			if j == ColComment {
				continue
			}
			zm := tf.ZoneMap(j)
			if zm == nil {
				t.Fatalf("col %s: no zonemap", colNames[j])
			}
			for c := 0; c < tf.NumChunks(); c++ {
				stripe := wantStripe(t, tf, c, j)
				n := tf.Layout().ChunkTuples(c)
				wantLo, wantHi := int64(math.MaxInt64), int64(math.MinInt64)
				for i := int64(0); i < n; i++ {
					v := int64(binary.LittleEndian.Uint64(stripe[i*8:]))
					if v < wantLo {
						wantLo = v
					}
					if v > wantHi {
						wantHi = v
					}
				}
				lo, hi := zm.Bounds(c)
				if lo != wantLo || hi != wantHi {
					t.Fatalf("col %s chunk %d bounds [%d, %d], want [%d, %d]",
						colNames[j], c, lo, hi, wantLo, wantHi)
				}
			}
		}
	}
}

// TestCompressedOpenTypedErrors pins Open's validation of the v4
// directories: every inconsistent scheme byte, extent length or zonemap
// bound is a typed geometry error, and torn files stay ErrTruncated.
func TestCompressedOpenTypedErrors(t *testing.T) {
	tf := newTestFileCompressed(t, 8_000, 500, 21)
	schemeOff, extOff, zoneOff := v4MetaOffsets(tf)
	// A codec page to corrupt: (chunk 1, shipdate) — shipdate compresses.
	codecPage, _ := tf.PartPages(1, ColShipDate)
	if s, ok := tf.ColScheme(ColShipDate); !ok {
		t.Fatalf("shipdate unexpectedly identity (scheme %v); pick another column", s)
	}
	// An identity page: the comment column is always stored raw.
	idPage, _ := tf.PartPages(0, ColComment)
	cases := []struct {
		name   string
		mutate func(raw []byte) []byte
		want   error
	}{
		{"truncated data", func(raw []byte) []byte { return raw[:len(raw)-1] }, ErrTruncated},
		{"truncated directories", func(raw []byte) []byte { return raw[:zoneOff+8] }, ErrTruncated},
		{"trailing garbage", func(raw []byte) []byte { return append(raw, 0, 0, 0, 0, 0, 0, 0, 0) }, ErrBadGeometry},
		{"unknown scheme byte", func(raw []byte) []byte {
			raw[schemeOff+int64(ColShipDate)] = 0x77
			return raw
		}, ErrBadGeometry},
		{"codec on comment column", func(raw []byte) []byte {
			raw[schemeOff+int64(ColComment)] = byte(compress.PFOR)
			return raw
		}, ErrBadGeometry},
		{"identity extent length mismatch", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[extOff+idPage*8:], uint64(tf.PageBytes(idPage)-8))
			return raw
		}, ErrBadGeometry},
		{"zero extent length", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[extOff+codecPage*8:], 0)
			return raw
		}, ErrBadGeometry},
		{"oversized extent length", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[extOff+codecPage*8:], uint64(4*tf.PageBytes(codecPage)))
			return raw
		}, ErrBadGeometry},
		{"extent length off by one", func(raw []byte) []byte {
			// Plausible per extent, but the directory no longer sums to the
			// file's data size: one byte of the file is now unaccounted for.
			l := binary.LittleEndian.Uint64(raw[extOff+codecPage*8:])
			binary.LittleEndian.PutUint64(raw[extOff+codecPage*8:], l-1)
			return raw
		}, ErrBadGeometry},
		{"inverted zonemap bounds", func(raw []byte) []byte {
			e := zoneOff + (int64(ColShipDate)*int64(tf.NumChunks())+2)*16
			binary.LittleEndian.PutUint64(raw[e:], uint64(100))
			binary.LittleEndian.PutUint64(raw[e+8:], uint64(50))
			return raw
		}, ErrBadGeometry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := mutatedCopy(t, tf, tc.mutate)
			got, err := Open(path)
			if err == nil {
				got.Close()
				t.Fatalf("Open accepted a v4 file with %s", tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Open error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCompressedCorruptExtent covers both corruption layers of a v4 read: a
// flipped stored byte fails the page's CRC (ErrChecksum), and a flipped
// byte whose checksum entry was "fixed" to match — silent media corruption
// past the CRC — fails structurally in the decoder (ErrCorrupt). Neither
// may ever decode into wrong tuples, and both tag the exact page.
func TestCompressedCorruptExtent(t *testing.T) {
	tf := newTestFileCompressed(t, 8_000, 500, 33)
	badPage, _ := tf.PartPages(2, ColShipDate)
	off, size := tf.PartFileRange(2, ColShipDate)
	if size != tf.StoredPageBytes(badPage) {
		t.Fatalf("PartFileRange size %d != StoredPageBytes %d", size, tf.StoredPageBytes(badPage))
	}

	check := func(t *testing.T, path string, want error) {
		t.Helper()
		re, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer re.Close()
		buf := make([]byte, re.PageBytes(badPage))
		err = re.ReadPageRange(badPage, 1, buf)
		if !errors.Is(err, want) {
			t.Fatalf("corrupt extent read error = %v, want %v", err, want)
		}
		var pe *PageError
		if !errors.As(err, &pe) || pe.Page != badPage {
			t.Fatalf("error %v not tagged with page %d", err, badPage)
		}
		// Every other page still reads cleanly and correctly.
		for p := int64(0); p < re.NumPages(); p++ {
			if p == badPage {
				continue
			}
			b := make([]byte, re.PageBytes(p))
			if err := re.ReadPageRange(p, 1, b); err != nil {
				t.Fatalf("clean page %d failed: %v", p, err)
			}
		}
	}

	t.Run("checksum", func(t *testing.T) {
		path := mutatedCopy(t, tf, func(raw []byte) []byte {
			raw[off+int64(size)/2] ^= 0x01
			return raw
		})
		check(t, path, ErrChecksum)
	})
	t.Run("structural", func(t *testing.T) {
		path := mutatedCopy(t, tf, func(raw []byte) []byte {
			// Corrupt the extent's codec header (value count), then forge the
			// checksum entry so verification passes and the decoder is the
			// last line of defense.
			ext := raw[off : off+int64(size)]
			binary.LittleEndian.PutUint64(ext[2:], uint64(1)<<40)
			binary.LittleEndian.PutUint64(raw[headerBytes+badPage*8:], pageChecksum(ext))
			return raw
		})
		check(t, path, ErrCorrupt)
	})
	t.Run("short decode", func(t *testing.T) {
		path := mutatedCopy(t, tf, func(raw []byte) []byte {
			// A structurally valid extent that decodes to too few values must
			// be rejected: the page mapping is fixed-width.
			ext := raw[off : off+int64(size)]
			binary.LittleEndian.PutUint64(ext[2:], uint64(tf.TuplesPerChunk()-1))
			binary.LittleEndian.PutUint64(raw[headerBytes+badPage*8:], pageChecksum(ext))
			return raw
		})
		check(t, path, ErrCorrupt)
	})
}

// TestCompressedCreateRejectsNSM pins the v4 format boundary: compressed
// extents are a DSM feature, and geometry errors from Create must not leave
// a partial file behind.
func TestCompressedCreateRejectsBadGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.tbl")
	if _, err := CreateCompressed(path, 0, 500, 1); err == nil {
		t.Fatal("CreateCompressed(rows=0) succeeded")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed create left a partial file behind (stat err = %v)", err)
	}
}

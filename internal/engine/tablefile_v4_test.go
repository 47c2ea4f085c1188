// Coded-extent and metadata-region tests: the decoded page view of a
// compressed file must be byte-identical to its identity twin of the same
// (rows, tpc, seed); stored bytes must actually shrink; persisted zonemap
// bounds must match the generator in every stored shape; Open must reject
// every torn directory with a typed error; corruption of stored extents
// must surface as ErrChecksum/ErrCorrupt, never as decoded garbage; and a
// create either completes or leaves nothing behind.
package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"coopscan/internal/colstore/compress"
)

// metaOffsets returns the absolute file offsets of the scheme table, the
// extent-length directory and the zonemap footer, straight from the layout
// contract (header, sums, schemes, extent lengths, zonemaps, data).
func metaOffsets(tf *TableFile) (schemeOff, extOff, zoneOff int64) {
	schemeOff = headerBytes + tf.NumPages()*8
	extOff = schemeOff + schemeTableBytes
	zoneOff = extOff + tf.NumPages()*8
	return
}

// TestCompressedRoundTrip is the twin oracle: every decoded page of a
// compressed file is byte-identical to the same page of the identity DSM
// file built from the same (rows, tpc, seed), both fresh from Create and
// after reopening.
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
// generator, in every stored shape, fresh and reopened: for every stored
// column and chunk, the footer's [lo, hi] must be exactly the min/max of
// the values the chunk holds — and the comment filler, alone, must have no
// zonemap at all.
func TestCompressedZoneMaps(t *testing.T) {
	for _, shape := range storedShapes {
		created := shape.create(t, 20_000, 1000, 11)
		re, err := Open(created.Path())
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		for _, tf := range []*TableFile{created, re} {
			for j := 0; j < NumCols; j++ {
				zm := tf.ZoneMap(j)
				if (zm == nil) != (j == ColComment) {
					t.Fatalf("%s col %s: zonemap %v, want one for every column but the comment filler", shape.name, colNames[j], zm)
				}
				if zm == nil {
					continue
				}
				for c := 0; c < tf.NumChunks(); c++ {
					stripe := wantStripe(t, tf, c, j)
					n := tf.Layout().ChunkTuples(c)
					wantLo, wantHi := int64(math.MaxInt64), int64(math.MinInt64)
					for i := int64(0); i < n; i++ {
						v := int64(binary.LittleEndian.Uint64(stripe[i*8:]))
						wantLo, wantHi = min(wantLo, v), max(wantHi, v)
					}
					if lo, hi := zm.Bounds(c); lo != wantLo || hi != wantHi {
						t.Fatalf("%s col %s chunk %d bounds [%d, %d], want [%d, %d]",
							shape.name, colNames[j], c, lo, hi, wantLo, wantHi)
					}
				}
			}
		}
	}
}

// TestCompressedOpenTypedErrors pins Open's validation of the metadata
// region in every stored shape: every inconsistent scheme byte, extent
// length or zonemap bound is a typed geometry error, and torn files stay
// ErrTruncated. The damaged extents are (chunk 1, shipdate) — coded in the
// compressed shape — and (chunk 0, comment), identity in all three.
func TestCompressedOpenTypedErrors(t *testing.T) {
	extLen := func(tf *TableFile, raw []byte, page int64) []byte {
		_, extOff, _ := metaOffsets(tf)
		return raw[extOff+page*8:]
	}
	shipPage := func(tf *TableFile) int64 { return stripePage(tf, 1, ColShipDate) }
	runOpenCases(t, []openCase{
		// What the file's size must be is read from the extent directory.
		{name: "truncated data", mutate: func(_ *TableFile, raw []byte) []byte { return raw[:len(raw)-1] }, want: ErrTruncated},
		{name: "trailing garbage", mutate: func(_ *TableFile, raw []byte) []byte { return append(raw, 0, 0, 0, 0, 0, 0, 0, 0) }, want: ErrBadGeometry},
		{name: "truncated directories", mutate: func(tf *TableFile, raw []byte) []byte {
			_, _, zoneOff := metaOffsets(tf)
			return raw[:zoneOff+8]
		}, want: ErrTruncated},
		{name: "unknown scheme byte", mutate: func(tf *TableFile, raw []byte) []byte {
			schemeOff, _, _ := metaOffsets(tf)
			raw[schemeOff+ColShipDate] = 0x77
			return raw
		}, want: ErrBadGeometry},
		{name: "codec on comment column", mutate: func(tf *TableFile, raw []byte) []byte {
			schemeOff, _, _ := metaOffsets(tf)
			raw[schemeOff+ColComment] = byte(compress.PFOR)
			return raw
		}, want: ErrBadGeometry},
		{name: "identity extent length mismatch", mutate: func(tf *TableFile, raw []byte) []byte {
			page := stripePage(tf, 0, ColComment)
			binary.LittleEndian.PutUint64(extLen(tf, raw, page), uint64(tf.PageBytes(page)-8))
			return raw
		}, want: ErrBadGeometry},
		{name: "zero extent length", mutate: func(tf *TableFile, raw []byte) []byte {
			binary.LittleEndian.PutUint64(extLen(tf, raw, shipPage(tf)), 0)
			return raw
		}, want: ErrBadGeometry},
		{name: "oversized extent length", mutate: func(tf *TableFile, raw []byte) []byte {
			binary.LittleEndian.PutUint64(extLen(tf, raw, shipPage(tf)), uint64(4*tf.PageBytes(shipPage(tf))))
			return raw
		}, want: ErrBadGeometry},
		{name: "extent length off by one", mutate: func(tf *TableFile, raw []byte) []byte {
			// Plausible for a coded extent, but the directory no longer sums
			// to the file's data size: one byte is now unaccounted for.
			l := binary.LittleEndian.Uint64(extLen(tf, raw, shipPage(tf)))
			binary.LittleEndian.PutUint64(extLen(tf, raw, shipPage(tf)), l-1)
			return raw
		}, want: ErrBadGeometry},
		{name: "inverted zonemap bounds", mutate: func(tf *TableFile, raw []byte) []byte {
			_, _, zoneOff := metaOffsets(tf)
			e := zoneOff + (int64(ColShipDate)*int64(tf.NumChunks())+2)*16
			binary.LittleEndian.PutUint64(raw[e:], uint64(100))
			binary.LittleEndian.PutUint64(raw[e+8:], uint64(50))
			return raw
		}, want: ErrBadGeometry},
	})
}

// TestCompressedCorruptExtent covers both corruption layers of a coded
// extent's read: a flipped stored byte fails the page's CRC (ErrChecksum),
// and a flipped byte whose checksum entry was "fixed" to match — silent
// media corruption past the CRC — fails structurally in the decoder
// (ErrCorrupt). Neither may ever decode into wrong tuples, and both tag the
// exact page.
func TestCompressedCorruptExtent(t *testing.T) {
	tf := newTestFileCompressed(t, 8_000, 500, 33)
	if _, coded := tf.ColScheme(ColShipDate); !coded {
		t.Fatal("shipdate unexpectedly identity; pick another column")
	}
	badPage, _ := tf.PartPages(2, ColShipDate)
	off, size := tf.PartFileRange(2, ColShipDate)
	if size != tf.StoredPageBytes(badPage) {
		t.Fatalf("PartFileRange size %d != StoredPageBytes %d", size, tf.StoredPageBytes(badPage))
	}
	// forge damages the extent, then fixes the checksum entry so
	// verification passes and the decoder is the last line of defense.
	forge := func(damage func(ext []byte)) string {
		return mutatedCopy(t, tf, func(raw []byte) []byte {
			ext := raw[off : off+size]
			damage(ext)
			binary.LittleEndian.PutUint64(raw[headerBytes+badPage*8:], pageChecksum(ext))
			return reseal(tf, raw)
		})
	}

	t.Run("checksum", func(t *testing.T) {
		path := mutatedCopy(t, tf, func(raw []byte) []byte {
			raw[off+size/2] ^= 0x01
			return raw
		})
		checkCorruptPage(t, path, badPage, ErrChecksum)
	})
	t.Run("structural", func(t *testing.T) {
		// The codec header's value count, far beyond a stripe.
		path := forge(func(ext []byte) { binary.LittleEndian.PutUint64(ext[2:], uint64(1)<<40) })
		checkCorruptPage(t, path, badPage, ErrCorrupt)
	})
	t.Run("short decode", func(t *testing.T) {
		// A structurally valid extent that decodes to too few values must
		// be rejected: the page mapping is fixed-width.
		path := forge(func(ext []byte) { binary.LittleEndian.PutUint64(ext[2:], uint64(tf.TuplesPerChunk()-1)) })
		checkCorruptPage(t, path, badPage, ErrCorrupt)
	})
}

// dirNames lists the directory entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestCompressedCreateRejectsBadGeometry: a create that fails — bad
// geometry, compression asked of NSM, a parent directory that is missing or
// not writable — leaves nothing at path and no temporary beside it.
func TestCompressedCreateRejectsBadGeometry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.tbl")
	readOnly := filepath.Join(dir, "ro")
	if err := os.Mkdir(readOnly, 0o555); err != nil {
		t.Fatal(err)
	}
	fails := map[string]func() (*TableFile, error){
		"zero rows":         func() (*TableFile, error) { return CreateCompressed(path, 0, 500, 1) },
		"zero chunk":        func() (*TableFile, error) { return CreateFormat(path, DSM, 500, 0, 1) },
		"unknown format":    func() (*TableFile, error) { return CreateFormat(path, Format(7), 500, 100, 1) },
		"compress with NSM": func() (*TableFile, error) { return create(path, NSM, 500, 100, 1, true) },
		"missing parent": func() (*TableFile, error) {
			return CreateFormat(filepath.Join(dir, "absent", "t.tbl"), NSM, 500, 100, 1)
		},
	}
	if os.Geteuid() != 0 { // root writes through the mode bits
		fails["unwritable parent"] = func() (*TableFile, error) { return CreateFormat(filepath.Join(readOnly, "t.tbl"), NSM, 500, 100, 1) }
	}
	for name, fail := range fails {
		if tf, err := fail(); err == nil {
			tf.Close()
			t.Fatalf("%s: create succeeded", name)
		}
		if got := dirNames(t, dir); len(got) != 1 || len(dirNames(t, readOnly)) != 0 {
			t.Fatalf("%s: failed create left %v behind", name, got)
		}
	}
}

// TestCreateReplacesAtomically: a create builds the file under a sibling
// temporary name and renames it into place, so a successful one leaves
// exactly one file, a stale temporary from a killed create is replaced, and
// whatever sat at path before (a complete older table here) is replaced
// whole — read through to the last chunk, never a mix.
func TestCreateReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.tbl")
	if err := os.WriteFile(path+".tmp", []byte("torn by a killed create"), 0o644); err != nil {
		t.Fatal(err)
	}
	for seed, shape := range []struct {
		format     Format
		compressed bool
	}{{NSM, false}, {DSM, true}} {
		tf, err := create(path, shape.format, 3_000, 500, uint64(seed), shape.compressed)
		if err != nil {
			t.Fatal(err)
		}
		if got := dirNames(t, dir); len(got) != 1 || got[0] != "t.tbl" {
			t.Fatalf("create left %v, want exactly t.tbl", got)
		}
		// The descriptor create returns reads the renamed file, as a fresh
		// Open does.
		re, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*TableFile{tf, re} {
			last := f.NumChunks() - 1
			if got := readChunkData(t, f, last).Col(ColTax); string(got) != string(wantStripe(t, f, last, ColTax)) {
				t.Fatalf("seed %d: last chunk differs from the generator", seed)
			}
			f.Close()
		}
	}
}

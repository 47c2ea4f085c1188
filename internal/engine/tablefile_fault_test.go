package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coopscan/internal/colstore/compress"
)

// mutatedCopy writes a mutated copy of tf's bytes into a fresh temp file and
// returns its path. mutate may also shrink or grow the byte slice.
func mutatedCopy(t *testing.T, tf *TableFile, mutate func(raw []byte) []byte) string {
	t.Helper()
	raw, err := os.ReadFile(tf.Path())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mutated.tbl")
	if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reseal re-takes the header's seal over raw, a copy of tf's bytes a test has
// damaged on purpose, so that Open gets past the seal to the validation (or
// the read) the test is about. A copy cut short of the metadata region is
// left alone: Open answers that before it looks at the seal.
func reseal(tf *TableFile, raw []byte) []byte {
	if int64(len(raw)) >= tf.dataOff {
		binary.LittleEndian.PutUint64(raw[sealWord*8:], seal(raw, raw[headerBytes:tf.dataOff]))
	}
	return raw
}

// openCase is one way of damaging a table file and the typed error Open
// must answer it with.
type openCase struct {
	name   string
	only   string // a storedShapes name, when the damage exists in one shape only
	mutate func(tf *TableFile, raw []byte) []byte
	want   error
}

// runOpenCases damages a file of every stored shape in every listed way and
// checks Open refuses each with its typed error, never a panic or a
// silently short table. Every copy is resealed after the damage: these cases
// pin the validation behind the seal — what a writer bug or a forger would
// meet — and TestMetadataSeal pins the seal.
func runOpenCases(t *testing.T, cases []openCase) {
	files := make([]*TableFile, len(storedShapes))
	for i, shape := range storedShapes {
		files[i] = shape.create(t, 8_000, 500, 21)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, shape := range storedShapes {
				if tc.only != "" && tc.only != shape.name {
					continue
				}
				path := mutatedCopy(t, files[i], func(raw []byte) []byte { return reseal(files[i], tc.mutate(files[i], raw)) })
				got, err := Open(path)
				if err == nil {
					got.Close()
					t.Errorf("%s: Open accepted the file", shape.name)
				} else if !errors.Is(err, tc.want) {
					t.Errorf("%s: Open error = %v, want %v", shape.name, err, tc.want)
				} else if tc.want == ErrBadVersion && !strings.Contains(err.Error(), "regenerate") {
					t.Errorf("%s: %q does not tell the user to regenerate the file", shape.name, err)
				}
			}
		})
	}
}

// putWord returns a mutation storing v as the little-endian word at off.
func putWord(off int64, v uint64) func(*TableFile, []byte) []byte {
	return func(_ *TableFile, raw []byte) []byte {
		binary.LittleEndian.PutUint64(raw[off:], v)
		return raw
	}
}

// TestOpenTypedErrors pins Open's strict validation of the header and the
// file's size: every way a file can be torn, truncated, foreign or stale
// surfaces as its typed error. (The metadata region's directories are
// TestCompressedOpenTypedErrors'.)
func TestOpenTypedErrors(t *testing.T) {
	runOpenCases(t, []openCase{
		{name: "torn header", mutate: func(_ *TableFile, raw []byte) []byte { return raw[:headerBytes/2] }, want: ErrTruncated},
		{name: "truncated checksum table", mutate: func(_ *TableFile, raw []byte) []byte { return raw[:headerBytes+8] }, want: ErrTruncated},
		{name: "truncated data", mutate: func(_ *TableFile, raw []byte) []byte { return raw[:len(raw)-1] }, want: ErrTruncated},
		{name: "zero filled", mutate: func(_ *TableFile, raw []byte) []byte { return make([]byte, len(raw)) }, want: ErrBadMagic},
		{name: "foreign magic", mutate: putWord(0, 0xDEADBEEF), want: ErrBadMagic},
		// The format before this one: it gets no reader, only the hint.
		{name: "stale version", mutate: putWord(8, fileVersion-1), want: ErrBadVersion},
		{name: "future version", mutate: putWord(8, fileVersion+1), want: ErrBadVersion},
		{name: "non-identity scheme on NSM", only: "nsm", mutate: func(tf *TableFile, raw []byte) []byte {
			// The writer stores NSM stripes as identity only, so the reader
			// takes nothing else: a known codec there is still a geometry
			// contradiction, not a readable table.
			schemeOff, _, _ := metaOffsets(tf)
			raw[schemeOff+ColShipDate] = byte(compress.PFOR)
			return raw
		}, want: ErrBadGeometry},
		{name: "zero rows", mutate: putWord(16, 0), want: ErrBadGeometry},
		{name: "wrong column count", mutate: putWord(40, NumCols+1), want: ErrBadGeometry},
		{name: "unknown format", mutate: putWord(48, 7), want: ErrBadGeometry},
		{name: "trailing garbage", mutate: func(_ *TableFile, raw []byte) []byte { return append(raw, 0, 0, 0, 0, 0, 0, 0, 0) }, want: ErrBadGeometry},
		// A header sizing more than the file holds is refused before
		// anything is allocated from it (FuzzOpen's first finding).
		{name: "rows beyond the file", mutate: putWord(16, math.MaxInt64), want: ErrTruncated},
		{name: "chunk beyond the file", mutate: putWord(24, math.MaxInt64), want: ErrTruncated},
	})
}

// checkCorruptPage opens the damaged file at path and verifies that reading
// badPage fails with want, tagged with exactly that page via PageError,
// while every other page still reads cleanly.
func checkCorruptPage(t *testing.T, path string, badPage int64, want error) {
	t.Helper()
	re, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	for p := int64(0); p < re.NumPages(); p++ {
		err := re.ReadPageRange(p, 1, make([]byte, re.PageBytes(p)))
		if p != badPage {
			if err != nil {
				t.Fatalf("clean page %d failed: %v", p, err)
			}
			continue
		}
		var pe *PageError
		if !errors.Is(err, want) || !errors.As(err, &pe) || pe.Page != badPage {
			t.Fatalf("corrupt page %d read error = %v, want %v tagged with the page", badPage, err, want)
		}
	}
}

// TestReadPageChecksumMismatch flips one stored byte on disk and verifies
// the read of exactly that page fails with ErrChecksum in every stored
// shape.
func TestReadPageChecksumMismatch(t *testing.T) {
	for _, shape := range storedShapes {
		t.Run(shape.name, func(t *testing.T) {
			tf := shape.create(t, 4_000, 500, 33)
			const chunk, col = 2, 1
			badPage := stripePage(tf, chunk, col)
			if c, _ := tf.PagePart(badPage); c != chunk {
				t.Fatalf("PagePart(%d) chunk = %d, want %d", badPage, c, chunk)
			}
			path := mutatedCopy(t, tf, func(raw []byte) []byte {
				raw[tf.dataOff+tf.extOff[badPage]+5] ^= 0x01
				return raw
			})
			checkCorruptPage(t, path, badPage, ErrChecksum)
		})
	}
}

// TestChecksumTableCorruption verifies a wrong entry in a (sealed) checksum
// table also fails the affected page with ErrChecksum: the page data is
// fine, but its provenance cannot be trusted.
func TestChecksumTableCorruption(t *testing.T) {
	for _, shape := range storedShapes {
		tf := shape.create(t, 4_000, 500, 17)
		const badPage = 3
		path := mutatedCopy(t, tf, func(raw []byte) []byte {
			raw[headerBytes+badPage*8] ^= 0xFF
			return reseal(tf, raw)
		})
		checkCorruptPage(t, path, badPage, ErrChecksum)
	}
}

// TestMetadataSeal flips every bit of the header and the metadata region of
// a three-chunk file of every stored shape, one at a time, and checks that
// Open refuses each damaged file with a typed error: a flipped checksum,
// scheme byte, extent length or zonemap bound — the last of which would
// otherwise drop or admit a chunk silently — is ErrChecksum, a flipped header
// bit that or whichever of the header's own checks it trips first.
func TestMetadataSeal(t *testing.T) {
	for _, shape := range storedShapes {
		tf := shape.create(t, 150, 64, 7) // the last chunk is short
		path := mutatedCopy(t, tf, func(raw []byte) []byte { return raw })
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		schemeOff, extOff, zoneOff := metaOffsets(tf)
		region := func(off int64) string {
			switch {
			case off < headerBytes:
				return "header"
			case off < schemeOff:
				return "checksum table"
			case off < extOff:
				return "scheme table"
			case off < zoneOff:
				return "extent directory"
			}
			return "zonemap footer"
		}
		var b [1]byte
		for off := int64(0); off < tf.dataOff; off++ {
			if _, err := f.ReadAt(b[:], off); err != nil {
				t.Fatal(err)
			}
			for bit := 0; bit < 8; bit++ {
				if _, err := f.WriteAt([]byte{b[0] ^ 1<<bit}, off); err != nil {
					t.Fatal(err)
				}
				got, err := Open(path)
				switch {
				case err == nil:
					got.Close()
					t.Fatalf("%s: Open accepted the file with bit %d of byte %d (%s) flipped", shape.name, bit, off, region(off))
				case errors.Is(err, ErrChecksum):
				case off >= headerBytes:
					t.Fatalf("%s: bit %d of byte %d (%s) flipped: Open error = %v, want ErrChecksum", shape.name, bit, off, region(off), err)
				case !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
					!errors.Is(err, ErrBadGeometry) && !errors.Is(err, ErrTruncated):
					t.Fatalf("%s: bit %d of header byte %d flipped: untyped error %v", shape.name, bit, off, err)
				}
			}
			if _, err := f.WriteAt(b[:], off); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := Open(path); err != nil {
			t.Fatalf("%s: the restored file no longer opens: %v", shape.name, err)
		} else {
			got.Close()
		}
	}
}

package engine

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen damages the header and metadata region of a small file of every
// stored shape — overwriting patch at an offset before the data region,
// retaking the header's seal over the result when shape's high bit is set (so
// the validation behind the seal is fuzzed too, not only the seal), then
// truncating or extending the file by resize bytes — and holds Open to its
// contract: it answers with one of its five typed errors, or with a table
// whose geometry the file's own size bounds and whose every part
// ReadPageRange either lands or refuses with a *PageError. Never a panic,
// never an allocation sized by a header the file cannot back.
func FuzzOpen(f *testing.F) {
	const resealed = 0x80
	var seeds [][]byte
	var files []*TableFile
	var dataOff int // the same for all three: it depends on the chunk count alone
	for _, shape := range storedShapes {
		tf := shape.create(f, 150, 64, 7) // three chunks, the last one short
		raw, err := os.ReadFile(tf.Path())
		if err != nil {
			f.Fatal(err)
		}
		seeds, files, dataOff = append(seeds, raw), append(files, tf), int(tf.dataOff)
	}
	_, _, zoneOff := metaOffsets(files[0])
	for shape := range seeds {
		f.Add(uint8(shape), uint16(0), []byte{}, int16(0))
		f.Add(uint8(shape), uint16(8), []byte{fileVersion - 1}, int16(0)) // the version before this one
		f.Add(uint8(shape), uint16(headerBytes), []byte{1}, int16(0))     // a checksum
		f.Add(uint8(shape), uint16(24), []byte{1}, int16(-1))             // one tuple per chunk, one byte short
		f.Add(uint8(shape), uint16(0), []byte{}, int16(64))
		f.Add(uint8(shape|resealed), uint16(headerBytes), []byte{1}, int16(0))                              // a checksum, sealed in
		f.Add(uint8(shape|resealed), uint16(zoneOff), []byte("\xff\xff\xff\xff\xff\xff\xff\x7f"), int16(0)) // inverted bounds
		f.Add(uint8(shape|resealed), uint16(16), []byte{151}, int16(0))                                     // one more row
	}
	f.Fuzz(func(t *testing.T, shape uint8, off uint16, patch []byte, resize int16) {
		which := int(shape&^resealed) % len(seeds)
		raw := append([]byte(nil), seeds[which]...)
		copy(raw[int(off)%dataOff:dataOff], patch)
		if shape&resealed != 0 {
			reseal(files[which], raw)
		}
		if n := len(raw) + int(resize); n <= len(raw) {
			raw = raw[:max(n, 0)]
		} else {
			raw = append(raw, make([]byte, int(resize))...)
		}
		path := filepath.Join(t.TempDir(), "fuzz.tbl")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		tf, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
				!errors.Is(err, ErrBadGeometry) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("Open: untyped error %v", err)
			}
			return
		}
		defer tf.Close()
		// Every chunk stores at least its comment stripe as identity, so no
		// accepted geometry decodes to more than TupleBytes/32 of the file.
		if decoded := int64(tf.NumChunks()) * tf.ChunkBytes(); decoded > 4*int64(len(raw)) {
			t.Fatalf("Open accepted %d chunks × %d bytes over a %d-byte file", tf.NumChunks(), tf.ChunkBytes(), len(raw))
		}
		for c := 0; c < tf.NumChunks(); c++ {
			for col := 0; col < NumCols; col++ {
				first, count := tf.PartPages(c, partColFor(tf.Format(), col))
				var size int64
				for p := first; p < first+int64(count); p++ {
					size += tf.PageBytes(p)
				}
				var pe *PageError
				if err := tf.ReadPageRange(first, count, make([]byte, size)); err != nil && !errors.As(err, &pe) {
					t.Fatalf("part (%d, %d): untyped read error %v", c, col, err)
				}
				if tf.Format() == NSM {
					break // one part per chunk
				}
			}
		}
	})
}

package serve

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"coopscan/internal/engine"
	"coopscan/internal/storage"
)

// fillerBytes returns n bytes of a fixed non-constant pattern.
func fillerBytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*131 + i>>8)
	}
	return out
}

// checkCombine asserts the concatenation identity for one (a, b) pair.
func checkCombine(t *testing.T, a, b []byte) {
	t.Helper()
	want := crc32.ChecksumIEEE(append(append([]byte(nil), a...), b...))
	if got := crcCombine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b))); got != want {
		t.Errorf("crcCombine over %d ‖ %d bytes = %#08x, crc32.ChecksumIEEE(a‖b) = %#08x", len(a), len(b), got, want)
	}
}

// TestCRCCombine checks crcCombine against hashing the concatenation, for
// every pairing of lengths that are empty, one byte, off the 8-byte grid, a
// full 128 KiB column stripe, and beyond it.
func TestCRCCombine(t *testing.T) {
	lengths := []int{0, 1, 2, 7, 8, 9, 63, 1000, 8 * 1000, 1<<17 - 1, 1 << 17, 1<<17 + 3, 300_001, 1 << 20}
	rng := rand.New(rand.NewSource(20))
	buf := make([]byte, 2<<20)
	rng.Read(buf)
	for _, la := range lengths {
		for _, lb := range lengths {
			off := rng.Intn(len(buf) - la - lb + 1)
			checkCombine(t, buf[off:off+la], buf[off+la:off+la+lb])
		}
	}
	// Folding left to right over several pieces, as ChunkCRC does.
	pieces := [][]byte{buf[:5], nil, buf[5:4101], buf[4101 : 4101+1<<17], buf[4101+1<<17 : 300_000]}
	crc := uint32(0)
	for _, p := range pieces {
		crc = crcCombine(crc, crc32.ChecksumIEEE(p), int64(len(p)))
	}
	if want := crc32.ChecksumIEEE(buf[:300_000]); crc != want {
		t.Errorf("left fold over %d pieces = %#08x, want %#08x", len(pieces), crc, want)
	}
}

// FuzzCRCCombine lets the fuzzer choose both operands; extra stretches b with
// filler so that lengths past a column stripe (2^17 bytes) are reachable
// without the fuzzer having to grow a corpus entry that large.
func FuzzCRCCombine(f *testing.F) {
	f.Add([]byte(nil), []byte(nil), uint32(0))
	f.Add([]byte("a"), []byte(nil), uint32(0))
	f.Add([]byte(nil), []byte("b"), uint32(0))
	f.Add([]byte("cooperative"), []byte(" scans"), uint32(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{0xff, 0xff, 0xff, 0xff, 0xff}, uint32(7))
	f.Add([]byte("odd"), []byte("lengths"), uint32(1<<17-7))
	f.Add([]byte("one stripe"), []byte(nil), uint32(1<<17))
	f.Add(fillerBytes(4099), fillerBytes(13), uint32(1<<17+1))
	f.Add([]byte{0x80}, []byte{0x01}, uint32(1<<18-1))
	f.Fuzz(func(t *testing.T, a, b []byte, extra uint32) {
		b = append(append([]byte(nil), b...), fillerBytes(int(extra%(1<<18)))...)
		checkCombine(t, a, b)
	})
}

// TestReceiptsUnderRecycling is the differential test of the cooperative
// receipt on the wire: every stored shape, nine chunks with a short last one,
// served under the two-chunk minimum budget so frames change tenant
// constantly, to concurrent sessions of three projections (q6, q1 and all,
// the 32-byte comment column included). Every receipt of every session must
// equal the reference streamed from the bytes.
func TestReceiptsUnderRecycling(t *testing.T) {
	const rows, tpc, rounds = 8_300, 1000, 2
	shapes := []struct {
		name   string
		create func(path string) (*engine.TableFile, error)
	}{
		{"nsm", func(p string) (*engine.TableFile, error) { return engine.CreateFormat(p, engine.NSM, rows, tpc, 81) }},
		{"dsm", func(p string) (*engine.TableFile, error) { return engine.CreateFormat(p, engine.DSM, rows, tpc, 82) }},
		{"dsm-compressed", func(p string) (*engine.TableFile, error) { return engine.CreateCompressed(p, rows, tpc, 83) }},
	}
	projections := []struct {
		wire string
		cols storage.ColSet
	}{
		{"q6", engine.Q6Cols()},
		{"q1", engine.Q1Cols()},
		{"all", storage.AllCols(engine.NumCols)},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			tf, err := shape.create(filepath.Join(t.TempDir(), "t.tbl"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tf.Close() })
			n := tf.NumChunks()
			if n < 8 || rows%tpc == 0 {
				t.Fatalf("want >= 8 chunks and a short last one, have %d", n)
			}
			want := make([]map[int]uint32, len(projections))
			for i, p := range projections {
				want[i], _ = goldenScan(t, tf, p.cols)
			}
			fx := newFixture(t, engine.ServerConfig{BufferBytes: 2 * tf.ChunkBytes()}, Config{MaxLive: 8}, tf)
			table := fx.eng.TableName(0)
			var wg sync.WaitGroup
			for s := 0; s < 2*len(projections); s++ {
				pi := s % len(projections)
				name := fmt.Sprintf("%s-%d", projections[pi].wire, s)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						res, err := RunScan(context.Background(), nil, fx.url, ScanParams{Table: table, Cols: projections[pi].wire, Name: name}, nil)
						if err != nil {
							t.Errorf("%s: %v", name, err)
							return
						}
						if len(res.Chunks) != n {
							t.Errorf("%s: %d receipts, want %d", name, len(res.Chunks), n)
						}
						for _, c := range res.Chunks {
							if c.CRC != want[pi][c.Chunk] {
								t.Errorf("%s: chunk %d receipt %#08x, reference %#08x", name, c.Chunk, c.CRC, want[pi][c.Chunk])
							}
						}
					}
				}()
			}
			wg.Wait()
			ts := fx.eng.Stats().Tables[0]
			if ts.ReceiptCRCsComputed == 0 || ts.ReceiptCRCsReused == 0 {
				t.Errorf("%d sums computed, %d reused: the sessions did not share", ts.ReceiptCRCsComputed, ts.ReceiptCRCsReused)
			}
			fx.shutdown(t, context.Background())
		})
	}
}

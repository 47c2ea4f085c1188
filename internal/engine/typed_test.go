// Typed-part tests: a part is []int64 from the frame allocator to the
// kernels. The live kernels are pinned against the parent's byte loops on
// every chunk of every format, and the guards fail if a load goes back to
// decoding into scratch and copying, if a view stops being word-aligned, or
// if a byte buffer that cannot be viewed as words is ever misread.
package engine

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/exec"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// byteLoopQ6 is the live Q6 kernel as it stood before parts were typed: one
// tuple at a time, every value pulled out of the stripe's bytes. Kept as a
// second reference beside exec.Q6Chunk.
func byteLoopQ6(d ChunkData, pred exec.Q6Predicate) exec.Q6Result {
	dates, disc := d.Col(ColShipDate), d.Col(ColDiscount)
	qty, price := d.Col(ColQuantity), d.Col(ColExtendedPrice)
	var res exec.Q6Result
	for i := int64(0); i < d.Tuples(); i++ {
		date := int64(binary.LittleEndian.Uint64(dates[i*8:]))
		dc := int64(binary.LittleEndian.Uint64(disc[i*8:]))
		q := int64(binary.LittleEndian.Uint64(qty[i*8:]))
		if date >= pred.DateLo && date < pred.DateHi &&
			dc >= pred.DiscLo && dc <= pred.DiscHi && q < pred.MaxQty {
			res.Revenue += int64(binary.LittleEndian.Uint64(price[i*8:])) * dc
			res.Rows++
		}
	}
	return res
}

// byteLoopQ1 is the parent's live Q1 kernel: the same byte reads and a map
// probe per qualifying row.
func byteLoopQ1(d ChunkData, dateMax int64, extraArith int) exec.Q1Result {
	at := func(col int, i int64) int64 {
		return int64(binary.LittleEndian.Uint64(d.Col(col)[i*8:]))
	}
	res := make(exec.Q1Result, 4)
	for i := int64(0); i < d.Tuples(); i++ {
		if at(ColShipDate, i) > dateMax {
			continue
		}
		qty, price := at(ColQuantity, i), at(ColExtendedPrice, i)
		discPrice := price * (100 - at(ColDiscount, i)) / 100
		charge := discPrice * (100 + at(ColTax, i)) / 100
		x := charge
		for r := 0; r < extraArith; r++ {
			x = x*31 + qty
			x ^= x >> 7
		}
		if x == -1 {
			continue
		}
		k := [2]byte{byte(at(ColReturnFlag, i)), byte(at(ColLineStatus, i))}
		grp, ok := res[k]
		if !ok {
			grp = &exec.Q1Group{Flag: k[0], Status: k[1]}
			res[k] = grp
		}
		grp.Count++
		grp.SumQty += qty
		grp.SumBase += price
		grp.SumDisc += discPrice
		grp.SumCharge += charge
	}
	return res
}

func sameQ1(a, b exec.Q1Result) bool {
	if len(a) != len(b) {
		return false
	}
	for k, g := range a {
		if o := b[k]; o == nil || *o != *g {
			return false
		}
	}
	return true
}

// TestLiveKernelsMatchParentByteLoops is this change's old-vs-new: every one
// of 48 chunks (the last one short), delivered by a live server whose buffer
// is a sixth of the table so frames recycle, is folded by the typed kernels
// and by the parent's byte loops over the very same frames, and both by the
// generator-backed reference.
func TestLiveKernelsMatchParentByteLoops(t *testing.T) {
	const tpc, chunks = 1000, 48
	const rows = chunks*tpc - 123
	table := tpch.LineitemTable(1)
	table.Rows = rows
	gen := tpch.NewGenerator(table, 77)
	// Q6 over the whole date span with DefaultQ6's other conjuncts, so no
	// chunk is trivially empty; Q1 with the suite's parameters.
	preds := []exec.Q6Predicate{
		exec.DefaultQ6(),
		{DateLo: tpch.DateMin, DateHi: tpch.DateMax + 1, DiscLo: 5, DiscHi: 7, MaxQty: 24},
	}
	for _, f := range storedShapes {
		t.Run(f.name, func(t *testing.T) {
			tf := f.create(t, rows, tpc, 77)
			if tf.NumChunks() != chunks {
				t.Fatalf("%d chunks, want %d", tf.NumChunks(), chunks)
			}
			srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 8 * tf.ChunkBytes(), InFlightDepth: 2}, tf)
			seen := 0
			_, err := srv.Scan(0, "old-vs-new", rangeSet(0, chunks), Q1Cols(), func(c int, d ChunkData) {
				seen++
				start, n := int64(c)*tpc, tf.Layout().ChunkTuples(c)
				for _, pred := range preds {
					got, old, ref := Q6Chunk(d, pred), byteLoopQ6(d, pred), exec.Q6Chunk(gen, start, n, pred)
					if got != old || got != ref {
						t.Errorf("chunk %d Q6 %+v: typed %+v, byte loop %+v, reference %+v", c, pred, got, old, ref)
					}
				}
				for _, extra := range []int{0, 8} {
					got, old, ref := Q1Chunk(d, 700, extra), byteLoopQ1(d, 700, extra), exec.Q1Chunk(gen, start, n, 700, extra)
					if !sameQ1(got, old) || !sameQ1(got, ref) {
						t.Errorf("chunk %d Q1 extra=%d: typed, byte-loop and reference results differ", c, extra)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != chunks {
				t.Errorf("%d chunks delivered, want %d", seen, chunks)
			}
		})
	}
}

// TestFrameViewsAligned: every part size is whole words, every NSM stripe
// starts on a word inside its chunk frame, every resident frame's byte view
// is accepted back as words — and the checked direction of the alias refuses
// the buffers that are not, with the typed error, through the public entry.
func TestFrameViewsAligned(t *testing.T) {
	for _, f := range storedShapes {
		t.Run(f.name, func(t *testing.T) {
			tf := f.create(t, 7_777, 500, 5) // a short last chunk
			for _, size := range partSizes(tf) {
				if size%8 != 0 {
					t.Errorf("part size %d is not whole words", size)
				}
			}
			for j, off := range tf.stripeOff {
				if off%8 != 0 {
					t.Errorf("column %d stripe offset %d is not word-aligned", j, off)
				}
			}
			srv := newTestServer(t, ServerConfig{Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes()}, tf)
			if _, err := srv.Scan(0, "fill", rangeSet(0, tf.NumChunks()), Q1Cols().Add(ColComment), func(c int, d ChunkData) {
				Q1Cols().Each(func(col int) {
					if got, want := int64(len(d.Ints(col))), d.Tuples(); got != want {
						t.Errorf("chunk %d column %d: %d words, want %d", c, col, got, want)
					}
					if got, want := int64(len(d.Col(col))), tf.ColStripeBytes(col); got != want {
						t.Errorf("chunk %d column %d: %d bytes, want %d", c, col, got, want)
					}
				})
				if d.Ints(ColComment) != nil || int64(len(d.Col(ColComment))) != tf.ColStripeBytes(ColComment) {
					t.Errorf("chunk %d: the four-word comment filler has a byte view only", c)
				}
			}); err != nil {
				t.Fatal(err)
			}
			srv.mu.Lock()
			defer srv.mu.Unlock()
			frames := partFrames(srv.tables[0])
			if len(frames) == 0 {
				t.Fatal("no resident frames to check")
			}
			for k, fr := range frames {
				words, err := bytesWords(wordBytes(fr.vals))
				if err != nil || len(words) != len(fr.vals) || &words[0] != &fr.vals[0] {
					t.Errorf("part (%d,%d): frame's byte view does not alias back to its words: %v", k.chunk, k.col, err)
				}
			}
		})
	}

	tf := newTestFileFormat(t, DSM, 2_000, 500, 5)
	buf := make([]byte, tf.ColStripeBytes(0)+8)
	n := tf.ColStripeBytes(0)
	if err := tf.ReadPageRange(0, 1, buf[:n]); err != nil {
		t.Fatalf("aligned buffer: %v", err)
	}
	want := string(buf[:n])
	for name, bad := range map[string][]byte{
		"shifted by one byte": buf[1 : 1+n],
		"shifted by four":     buf[4 : 4+n],
		"odd length":          buf[:n-3],
	} {
		for i := range bad {
			bad[i] = 0xAA
		}
		if err := tf.ReadPageRange(0, 1, bad); !errors.Is(err, ErrUnaligned) {
			t.Errorf("%s: err = %v, want ErrUnaligned", name, err)
		}
		for _, b := range bad {
			if b != 0xAA {
				t.Fatalf("%s: the refused buffer was written to", name)
			}
		}
	}
	if _, err := bytesWords(buf[1:9]); !errors.Is(err, ErrUnaligned) {
		t.Errorf("bytesWords(buf[1:9]) = %v, want ErrUnaligned", err)
	}
	if err := tf.ReadPageRange(0, 1, buf[:n]); err != nil || string(buf[:n]) != want {
		t.Errorf("aligned re-read differs or failed: %v", err)
	}
}

// TestHostByteOrder: the in-place word view equals the file format's
// little-endian decoding on this host, which is what checkByteOrder vouches
// for at Open and Create.
func TestHostByteOrder(t *testing.T) {
	if err := checkByteOrder(); err != nil {
		t.Skipf("big-endian host: Open and Create refuse it (%v)", err)
	}
	tf := newTestFile(t, 1_000, 500, 9)
	stripe := make([]byte, tf.ColStripeBytes(ColExtendedPrice))
	if err := tf.ReadPageRange(int64(ColExtendedPrice), 1, stripe); err != nil {
		t.Fatal(err)
	}
	words, err := bytesWords(stripe)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		if le := int64(binary.LittleEndian.Uint64(stripe[i*8:])); w != le {
			t.Fatalf("word %d: in place %d, little-endian decode %d", i, w, le)
		}
	}
}

// TestV4LoadLandsInFrame: a part load lands in the frame, whichever way
// the file stores it. An identity part — the whole chunk of an NSM file, a
// stripe of a DSM one, the comment filler of a compressed one — is read
// straight into the frame: cold it allocates no copy of the part and the
// stored-byte scratch is never touched. A coded part decodes straight into the frame:
// cold — a freshly opened file, nothing pooled — it allocates less than one
// decoded stripe, so no scratch of decoded values exists anywhere to copy
// from. Warm, neither allocates; and a load writes its part's words and no
// others.
func TestV4LoadLandsInFrame(t *testing.T) {
	for _, shape := range storedShapes {
		created := shape.create(t, 8_000, 1000, 3)
		cols := []int{ColShipDate, ColExtendedPrice, ColReturnFlag, ColComment}
		if created.Format() == NSM {
			cols = cols[:1] // one part per chunk, whatever the column
		}
		for _, col := range cols {
			tf, err := Open(created.Path())
			if err != nil {
				t.Fatal(err)
			}
			defer tf.Close()
			first, count := tf.PartPages(3, partColFor(tf.Format(), col))
			_, coded := tf.ColScheme(col)
			n := int(tf.ColStripeBytes(col) / 8)
			if tf.Format() == NSM {
				n = int(tf.ChunkBytes() / 8)
			}
			arena := make([]int64, 3*n)
			for i := range arena {
				arena[i] = -0x5555
			}
			fr := &frame{vals: arena[n : 2*n : 2*n]}
			load := func() {
				if err := tf.readPageRange(first, count, fr.vals, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			load()
			runtime.ReadMemStats(&after)
			cold := int64(after.TotalAlloc - before.TotalAlloc)
			// TotalAlloc is process-wide, so the bound is one part's bytes, not
			// zero: other goroutines may allocate meanwhile, but a scratch copy
			// of the part cannot hide under it.
			if cold >= fr.bytes() {
				t.Errorf("%s column %d: the first load allocated %d bytes, the part is %d: it is not landing in the frame",
					shape.name, col, cold, fr.bytes())
			}
			if !coded && tf.storedScratch.Get() != nil {
				t.Errorf("%s column %d: the first load of an identity part pooled scratch: it is not read in place", shape.name, col)
			}
			if a := testing.AllocsPerRun(50, load); a != 0 {
				t.Errorf("%s column %d: %v allocs per steady-state part load, want 0", shape.name, col, a)
			}
			want := readChunkDataCols(t, tf, 3, storage.Cols(col)).vecs[col]
			if tf.Format() == NSM {
				want = nil
				for _, vec := range readChunkData(t, tf, 3).vecs {
					want = append(want, vec...)
				}
			}
			for i, v := range arena {
				switch {
				case i >= n && i < 2*n && v != want[i-n]:
					t.Fatalf("%s column %d word %d = %d, want %d", shape.name, col, i-n, v, want[i-n])
				case (i < n || i >= 2*n) && v != -0x5555:
					t.Fatalf("%s column %d: the load wrote outside its frame at word %d", shape.name, col, i-n)
				}
			}
		}
	}
}

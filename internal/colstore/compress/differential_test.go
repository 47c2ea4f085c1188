package compress

// The differential net for the one-pass decoder: every buffer shape the
// block kernels distinguish, hand-assembled (EncodeInts picks its own width,
// so it cannot reach most of them), decoded by the product and by the
// reference decoders of reference_test.go, which must agree value for value
// and error for error.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// wantDecode is what the product must make of buf: what the reference
// makes of it, except that a PFOR or PFOR-DELTA exception list whose
// positions are not strictly ascending — an order the encoder never writes,
// which the reference decodes anyway — is ErrCorrupt.
func wantDecode(buf []byte) ([]int64, error) {
	want, err := refDecodeIntsInto(nil, buf)
	if s, width, n, rest, _ := readHeader(buf); err == nil && (s == PFOR || s == PFORDelta) && n > 0 {
		excs := rest[12+(n*int(width)+7)/8:][:12*binary.LittleEndian.Uint32(rest[8:12])]
		for last := -1; len(excs) > 0; excs = excs[12:] {
			if pos := int(binary.LittleEndian.Uint32(excs)); pos > last {
				last = pos
				continue
			}
			return nil, fmt.Errorf("exceptions out of order: %w", ErrCorrupt)
		}
	}
	return want, err
}

// requireSameDecode decodes buf with the reference, under the order rule
// (wantDecode), and with the product — into a fresh slice, into a dirty
// slice of exactly the right size, and into a dirty undersized one — and
// fails unless all agree.
func requireSameDecode(t testing.TB, what string, buf []byte) {
	t.Helper()
	want, werr := wantDecode(buf)
	if werr != nil && !errors.Is(werr, ErrCorrupt) {
		t.Fatalf("%s: reference failed with %v, not ErrCorrupt", what, werr)
	}
	dirty := func(n int) []int64 {
		d := make([]int64, n)
		for i := range d {
			d[i] = -0x0123456789abcdef
		}
		return d
	}
	for _, dst := range [][]int64{nil, dirty(len(want)), dirty(len(want) / 2)} {
		got, err := DecodeIntsInto(dst, buf)
		if werr != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: reference says %v, decoder returned %d values, error %v", what, werr, len(got), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: reference decodes %d values, decoder fails: %v", what, len(want), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: value %d of %d = %d, reference %d (dst cap %d)", what, i, len(want), got[i], want[i], cap(dst))
			}
		}
	}
}

type exception struct {
	pos uint32
	val uint64
}

// pforBuffer assembles a PFOR or PFOR-DELTA buffer around the given packed
// values (already within width) and exception list, with the reference
// packer.
func pforBuffer(s Scheme, width uint, base uint64, packed []uint64, excs []exception) []byte {
	out := putHeader(nil, s, width, len(packed))
	out = binary.LittleEndian.AppendUint64(out, base)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(excs)))
	out = refPackBits(out, packed, width)
	for _, e := range excs {
		out = binary.LittleEndian.AppendUint32(out, e.pos)
		out = binary.LittleEndian.AppendUint64(out, e.val)
	}
	return out
}

func dictBuffer(width uint, dict []int64, codes []uint64) []byte {
	out := putHeader(nil, PDict, width, len(codes))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(dict)))
	for _, v := range dict {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return refPackBits(out, codes, width)
}

func randomFields(rng *rand.Rand, n int, width uint, below uint64) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		v := rng.Uint64()
		if width < 64 {
			v &= 1<<width - 1
		}
		if below != 0 {
			v %= below
		}
		vals[i] = v
	}
	return vals
}

var differentialCounts = []int{0, 1, 7, 8, 9, 63, 64, 65, 1000, 16384}

func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	exceptionLists := []struct {
		name string
		at   func(n int) []exception
	}{
		{"none", func(int) []exception { return nil }},
		{"sparse", func(n int) []exception { return everyNth(rng, n, 97) }},
		{"dense", func(n int) []exception { return everyNth(rng, n, 3) }},
		{"first and last", func(n int) []exception {
			var ends []exception
			if n > 0 {
				ends = append(ends, exception{0, rng.Uint64()})
			}
			if n > 1 {
				ends = append(ends, exception{uint32(n - 1), rng.Uint64()})
			}
			return ends
		}},
	}
	for width := uint(0); width <= 64; width++ {
		for _, n := range differentialCounts {
			for _, list := range exceptionLists {
				for _, s := range []Scheme{PFOR, PFORDelta} {
					packed, excs := randomFields(rng, n, width, 0), list.at(n)
					for _, e := range excs {
						packed[e.pos] = 0
					}
					what := fmt.Sprintf("%v width %d n %d exceptions %s", s, width, n, list.name)
					requireSameDecode(t, what, pforBuffer(s, width, rng.Uint64(), packed, excs))
				}
			}
			for _, size := range []int{1, 2, 3, 4, 5, 256, 257} {
				dict := make([]int64, size)
				for i := range dict {
					dict[i] = int64(rng.Uint64())
				}
				codes := randomFields(rng, n, width, uint64(size))
				what := fmt.Sprintf("pdict of %d width %d n %d", size, width, n)
				requireSameDecode(t, what, dictBuffer(width, dict, codes))
				if n > 0 && width < 64 && uint64(size) < 1<<width {
					codes[rng.Intn(n)] = uint64(size) // one code past the dictionary
					requireSameDecode(t, what+" with a code out of range", dictBuffer(width, dict, codes))
				}
			}
		}
	}
}

func everyNth(rng *rand.Rand, n, step int) []exception {
	var excs []exception
	for pos := rng.Intn(step); pos < n; pos += step {
		excs = append(excs, exception{uint32(pos), rng.Uint64()})
	}
	return excs
}

// TestDecodeDamagedMatchesReference walks the failure surface by hand: every
// truncation of a buffer of each scheme, and the exception lists the decoder
// must refuse, though the reference decodes some of them — unsorted,
// duplicated, out of range.
func TestDecodeDamagedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 1100 // three blocks, the last ragged
	for _, width := range []uint{0, 1, 2, 5, 8, 13, 32, 40, 61, 64} {
		packed := randomFields(rng, n, width, 0)
		for _, s := range []Scheme{PFOR, PFORDelta} {
			for _, list := range []struct {
				name string
				excs []exception
			}{
				{"unsorted", []exception{{900, 1}, {3, 2}, {512, 3}, {511, 4}}},
				{"duplicates", []exception{{5, 1}, {5, 2}, {700, 3}, {700, 4}, {700, 5}}},
				{"equal neighbours", []exception{{10, 1}, {11, 2}, {11, 3}}},
				{"one past the end", []exception{{3, 1}, {n, 2}}},
				{"far out of range", []exception{{1 << 31, 1}}},
				{"descending", []exception{{n - 1, 1}, {512, 2}, {0, 3}}},
			} {
				buf := pforBuffer(s, width, 77, packed, list.excs)
				requireSameDecode(t, fmt.Sprintf("%v width %d exceptions %s", s, width, list.name), buf)
				if _, err := Check(buf); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%v width %d exceptions %s: Check says %v, not ErrCorrupt", s, width, list.name, err)
				}
			}
			buf := pforBuffer(s, width, 77, packed, everyNth(rng, n, 50))
			for cut := 0; cut < len(buf); cut += 1 + cut/64 {
				requireSameDecode(t, fmt.Sprintf("%v width %d cut to %d of %d bytes", s, width, cut, len(buf)), buf[:cut])
			}
		}
		dict := []int64{-5, 1 << 40, 0, 9, 77}
		buf := dictBuffer(width, dict, randomFields(rng, n, width, uint64(len(dict))))
		for cut := 0; cut < len(buf); cut += 1 + cut/64 {
			requireSameDecode(t, fmt.Sprintf("pdict width %d cut to %d of %d bytes", width, cut, len(buf)), buf[:cut])
		}
	}
	raw := encodeRaw([]int64{1, -2, 3})
	for cut := range raw {
		requireSameDecode(t, fmt.Sprintf("raw cut to %d bytes", cut), raw[:cut])
	}
}

// addLineitemWidthSeeds seeds a decode fuzzer with buffers of each scheme at
// the packed widths of the stored lineitem columns — one per block kernel
// the load path runs — with sorted, duplicated and unsorted exception lists.
func addLineitemWidthSeeds(f *testing.F) {
	rng := rand.New(rand.NewSource(24))
	for _, width := range []uint{1, 2, 4, 6, 8, 17, 21} {
		packed := randomFields(rng, 600, width, 0)
		f.Add(pforBuffer(PFOR, width, 1<<40, packed, everyNth(rng, 600, 60)))
		f.Add(pforBuffer(PFORDelta, width, 0, packed, everyNth(rng, 600, 60)))
		f.Add(pforBuffer(PFORDelta, width, 0, packed, []exception{{9, 1}, {9, 2}, {2, 3}}))
		f.Add(dictBuffer(width, []int64{'A', 'N', 'R'}, randomFields(rng, 600, width, 3)))
	}
	f.Add(dictBuffer(9, make([]int64, 300), randomFields(rng, 100, 9, 300)))
	// A code past the dictionary at the sub-byte widths, once in a block of
	// eight the one-pass loop decodes and once in the ragged tail it leaves
	// to the block loop: ErrCorrupt from both places, as from the reference.
	const n = 603
	for _, width := range []uint{1, 2, 4} {
		dict := []int64{'A', 'N', 'R'}[:min(3, 1<<width-1)]
		for _, at := range []int{8*40 + 5, n - 2} {
			codes := randomFields(rng, n, width, uint64(len(dict)))
			codes[at] = uint64(len(dict))
			f.Add(dictBuffer(width, dict, codes))
		}
	}
}

// FuzzDecodeDifferential feeds arbitrary buffers to both decoders: an
// exception list not strictly ascending is ErrCorrupt; otherwise both fail
// with ErrCorrupt, or both return the same values.
func FuzzDecodeDifferential(f *testing.F) {
	addLineitemWidthSeeds(f)
	f.Add(encodeRaw([]int64{1, 2, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameDecode(t, "fuzz input", data)
	})
}

// FuzzCheckThenDecode holds the decoder's two halves to the whole and to the
// reference under the order rule (wantDecode): Check accepts a buffer
// exactly when DecodeIntsInto decodes it and the rule does, and says how
// many values; once it has, DecodeChecked neither panics nor differs from
// the reference, into a dirty destination of the right size or an
// undersized one.
func FuzzCheckThenDecode(f *testing.F) {
	addDecodeSeeds(f)
	f.Add(encodeRaw([]int64{1, 2, 3}))
	addCorpus(f, "FuzzDecodeInts")
	addCorpus(f, "FuzzDecodeDifferential")
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Check(data)
		want, werr := wantDecode(data)
		_, derr := DecodeIntsInto(nil, data)
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("Check: %v, not ErrCorrupt", err)
		case (err == nil) != (werr == nil) || (err == nil) != (derr == nil):
			t.Fatalf("Check says %v, the reference %v, DecodeIntsInto %v", err, werr, derr)
		case err != nil:
			return
		case n != len(want):
			t.Fatalf("Check counts %d values, the reference decodes %d", n, len(want))
		}
		for _, size := range []int{n, n / 2} {
			dst := make([]int64, size)
			for i := range dst {
				dst[i] = -0x0123456789abcdef
			}
			got := DecodeChecked(dst, data)
			if len(got) != n {
				t.Fatalf("DecodeChecked into %d words: %d values, want %d", size, len(got), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("DecodeChecked into %d words: value %d = %d, reference %d", size, i, got[i], want[i])
				}
			}
		}
	})
}

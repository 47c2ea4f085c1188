package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTripInts(t *testing.T, s Scheme, values []int64) []byte {
	t.Helper()
	buf, err := EncodeInts(s, values)
	if err != nil {
		t.Fatalf("%v: encode: %v", s, err)
	}
	got, err := DecodeInts(buf)
	if err != nil {
		t.Fatalf("%v: decode: %v", s, err)
	}
	if len(got) != len(values) {
		t.Fatalf("%v: length %d, want %d", s, len(got), len(values))
	}
	for i := range values {
		if got[i] != values[i] {
			t.Fatalf("%v: value %d = %d, want %d", s, i, got[i], values[i])
		}
	}
	return buf
}

func TestRoundTripAllSchemesSmall(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{0},
		{42},
		{-1},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{0, 0, 0, 0},
		{math.MaxInt64, math.MinInt64, 0, -1, 1},
		{1 << 40, -(1 << 40), 7},
	}
	for _, s := range []Scheme{Raw, PFOR, PFORDelta, PDict} {
		for _, c := range cases {
			roundTripInts(t, s, c)
		}
	}
}

func TestPFORCompressesLowRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := make([]int64, 10000)
	base := int64(1e12)
	for i := range values {
		values[i] = base + rng.Int63n(100) // fits in 7 bits after FOR
	}
	buf := roundTripInts(t, PFOR, values)
	bpv, err := BitsPerValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	if bpv > 9 {
		t.Errorf("PFOR bits/value = %.2f, want <= 9 for 7-bit range", bpv)
	}
}

func TestPFORExceptionsPatched(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	values := make([]int64, 5000)
	for i := range values {
		values[i] = rng.Int63n(64)
	}
	// 1% wild outliers: must become exceptions, not blow up the width.
	for i := 0; i < 50; i++ {
		values[rng.Intn(len(values))] = rng.Int63()
	}
	buf := roundTripInts(t, PFOR, values)
	bpv, _ := BitsPerValue(buf)
	if bpv > 10 {
		t.Errorf("PFOR with 1%% outliers: bits/value = %.2f, want <= 10", bpv)
	}
}

func TestPFORDeltaOnSortedKeys(t *testing.T) {
	// The paper's Figure 9: orderkey compresses to ~3 bits with PFOR-DELTA.
	values := make([]int64, 100000)
	k := int64(0)
	rng := rand.New(rand.NewSource(3))
	for i := range values {
		if rng.Intn(4) == 0 {
			k++ // orderkey advances every ~4 lineitems
		}
		values[i] = k
	}
	buf := roundTripInts(t, PFORDelta, values)
	bpv, _ := BitsPerValue(buf)
	if bpv > 4 {
		t.Errorf("PFOR-DELTA on clustered keys: bits/value = %.2f, want <= 4", bpv)
	}
	raw, _ := EncodeInts(Raw, values)
	if len(buf)*8 > len(raw) {
		t.Errorf("delta buffer (%d) not at least 8x smaller than raw (%d)", len(buf), len(raw))
	}
}

func TestPDictLowCardinality(t *testing.T) {
	// returnflag-style column: 3 distinct values -> 2 bits/value.
	flags := []int64{'A', 'N', 'R'}
	rng := rand.New(rand.NewSource(4))
	values := make([]int64, 20000)
	for i := range values {
		values[i] = flags[rng.Intn(3)]
	}
	buf := roundTripInts(t, PDict, values)
	bpv, _ := BitsPerValue(buf)
	if bpv > 2.2 {
		t.Errorf("PDICT bits/value = %.2f, want ~2", bpv)
	}
}

func TestCorruptBuffers(t *testing.T) {
	valid, _ := EncodeInts(PFOR, []int64{1, 2, 3, 1000})
	cases := map[string][]byte{
		"empty":          {},
		"short header":   valid[:5],
		"bad scheme":     {99, 0, 1, 0, 0, 0, 0, 0, 0, 0},
		"truncated body": valid[:len(valid)-1],
		"huge count":     {byte(Raw), 64, 255, 255, 255, 255, 255, 255, 255, 255},
	}
	for name, buf := range cases {
		if _, err := DecodeInts(buf); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestQuickRoundTripPFOR(t *testing.T) {
	f := func(values []int64) bool {
		for _, s := range []Scheme{PFOR, PFORDelta, PDict, Raw} {
			buf, err := EncodeInts(s, values)
			if err != nil {
				return false
			}
			got, err := DecodeInts(buf)
			if err != nil {
				return false
			}
			if len(got) != len(values) {
				return false
			}
			for i := range values {
				if got[i] != values[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickBitPack(t *testing.T) {
	f := func(raw []uint64, widthSeed uint8) bool {
		width := uint(widthSeed%64) + 1
		values := make([]uint64, len(raw))
		for i, v := range raw {
			if width < 64 {
				values[i] = v & ((uint64(1) << width) - 1)
			} else {
				values[i] = v
			}
		}
		packed := packBits(nil, values, width)
		if len(packed) != packedLen(len(values), width) || !bytes.Equal(packed, refPackBits(nil, values, width)) {
			return false
		}
		got := make([]int64, len(values))
		unpackAdd(got, packed, width, 0)
		for i := range values {
			if uint64(got[i]) != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestZigZag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, 12345, -98765} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip of %d = %d", v, got)
		}
	}
	if zigzag(0) != 0 || zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Error("zigzag should interleave small magnitudes")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]uint{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, math.MaxUint64: 64}
	for v, want := range cases {
		if got := bitsFor(v); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{Raw: "raw", PFOR: "pfor", PFORDelta: "pfor-delta", PDict: "pdict"} {
		if s.String() != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if Scheme(77).String() == "" {
		t.Error("unknown scheme should stringify")
	}
}

func TestBitsPerValueRawIs64(t *testing.T) {
	buf, _ := EncodeInts(Raw, make([]int64, 100))
	bpv, err := BitsPerValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	if bpv != 64 {
		t.Errorf("raw bits/value = %v, want 64", bpv)
	}
}

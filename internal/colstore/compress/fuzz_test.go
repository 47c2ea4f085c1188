package compress

// Native fuzz targets for the codecs: with PR 10 the schemes move onto the
// live engine's hot read path (workers decode every pinned extent), so a
// corrupt buffer that slipped past the CRC layer must fail closed. The
// contract under fuzzing: decoders never panic and never allocate from
// attacker-controlled sizes; structurally invalid buffers return ErrCorrupt.
// (Silent value corruption inside an intact structure is the CRC's job —
// TableFile checksums the stored bytes — so round-trip fidelity is asserted
// on encoder output, not on arbitrary mutations.)

import (
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzValues derives a deterministic int64 slice from raw fuzz bytes, mixing
// small deltas, dictionary-friendly repeats and full-range outliers so every
// scheme's encoder exercises its exception/dictionary paths.
func fuzzValues(data []byte) []int64 {
	n := len(data)
	if n > 4096 {
		n = 4096
	}
	vals := make([]int64, n)
	acc := int64(0)
	for i := 0; i < n; i++ {
		b := data[i]
		switch b % 4 {
		case 0:
			acc += int64(b)
		case 1:
			acc -= int64(b) * 257
		case 2:
			acc = int64(b % 7) // low cardinality for PDICT
		case 3:
			acc = (acc << 13) ^ int64(b) // outliers for PFOR exceptions
		}
		vals[i] = acc
	}
	return vals
}

func FuzzDecodeInts(f *testing.F) {
	for _, s := range []Scheme{Raw, PFOR, PFORDelta, PDict} {
		buf, err := EncodeInts(s, []int64{1, 2, 3, 3, 3, -9, 1 << 40})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-3]) // truncated payload
		f.Add(buf[:headerSize]) // header only
	}
	// Adversarial headers: huge n, oversized width, unknown scheme.
	huge := make([]byte, headerSize)
	huge[0] = byte(PFOR)
	binary.LittleEndian.PutUint64(huge[2:10], 1<<50)
	f.Add(huge)
	f.Add([]byte{byte(PFOR), 200, 8, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{7, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	addLineitemWidthSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecodeInts(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeInts: non-ErrCorrupt failure %v", err)
			}
			return
		}
		if len(out) > maxValues {
			t.Fatalf("DecodeInts: %d values exceeds maxValues", len(out))
		}
		// The Into variant must agree with the allocating one, including
		// when handed an undersized, dirty scratch buffer.
		scratch := make([]int64, len(out)/2+1)
		for i := range scratch {
			scratch[i] = -1
		}
		again, err := DecodeIntsInto(scratch, data)
		if err != nil {
			t.Fatalf("DecodeIntsInto failed where DecodeInts succeeded: %v", err)
		}
		if len(again) != len(out) {
			t.Fatalf("DecodeIntsInto length %d != DecodeInts %d", len(again), len(out))
		}
		for i := range out {
			if out[i] != again[i] {
				t.Fatalf("DecodeIntsInto[%d]=%d != DecodeInts %d", i, again[i], out[i])
			}
		}
	})
}

func FuzzRoundTripInts(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		values := fuzzValues(data)
		for _, s := range []Scheme{Raw, PFOR, PFORDelta, PDict} {
			buf, err := EncodeInts(s, values)
			if err != nil {
				t.Fatalf("%v: encode: %v", s, err)
			}
			got, err := DecodeInts(buf)
			if err != nil {
				t.Fatalf("%v: decode of own output: %v", s, err)
			}
			if len(got) != len(values) {
				t.Fatalf("%v: round-trip length %d != %d", s, len(got), len(values))
			}
			for i := range values {
				if got[i] != values[i] {
					t.Fatalf("%v: round-trip [%d] = %d, want %d", s, i, got[i], values[i])
				}
			}
			// Single-byte mutations must never panic; a successful decode
			// of a mutated buffer is allowed (payload bits are CRC-guarded
			// upstream) but must stay within the claimed geometry.
			if len(buf) > 0 && len(data) > 0 {
				mut := make([]byte, len(buf))
				copy(mut, buf)
				pos := int(data[0]) % len(mut)
				mut[pos] ^= 1 << (data[len(data)-1] % 8)
				out, err := DecodeInts(mut)
				if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%v: mutated decode: non-ErrCorrupt failure %v", s, err)
				}
				if err == nil && len(out) > maxValues {
					t.Fatalf("%v: mutated decode returned %d values", s, len(out))
				}
			}
		}
	})
}

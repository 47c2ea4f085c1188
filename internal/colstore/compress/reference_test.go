package compress

// The codec this package shipped until the one-pass decoder replaced it, kept
// verbatim as the differential reference (the servetest.ReferenceChunkCRC
// pattern): bit-slicing pack and unpack, and the three-pass PFOR / PFOR-DELTA
// / PDICT decoders — unpack every value, then patch the exceptions, then
// walk the output again to add the base, run the prefix sum or look up the
// dictionary. TestDecodeMatchesReference and FuzzDecodeDifferential hold the
// product against it, value for value and error for error.

import (
	"encoding/binary"
	"fmt"
)

func refPackBits(dst []byte, values []uint64, width uint) []byte {
	if width > 64 {
		panic("compress: bit width > 64")
	}
	if width == 0 {
		return dst
	}
	bitLen := len(values) * int(width)
	byteLen := (bitLen + 7) / 8
	start := len(dst)
	dst = append(dst, make([]byte, byteLen)...)
	bitPos := 0
	for _, v := range values {
		if width < 64 && v>>width != 0 {
			panic("compress: value does not fit bit width")
		}
		got := uint(0)
		for got < width {
			byteIdx := start + bitPos/8
			bitOff := uint(bitPos % 8)
			take := 8 - bitOff
			if rem := width - got; take > rem {
				take = rem
			}
			dst[byteIdx] |= byte((v >> got) << bitOff)
			got += take
			bitPos += int(take)
		}
	}
	return dst
}

func refUnpackBits(out []int64, src []byte, n int, width uint) int {
	if width > 64 {
		panic("compress: bit width > 64")
	}
	out = out[:n]
	if width == 0 {
		clear(out)
		return 0
	}
	if need := (n*int(width) + 7) / 8; len(src) < need {
		panic("compress: bit stream truncated")
	}
	bitPos, i := 0, 0
	if width <= 57 {
		mask := uint64(1)<<width - 1
		for ; i < n && bitPos/8+8 <= len(src); i++ {
			out[i] = int64(binary.LittleEndian.Uint64(src[bitPos/8:]) >> uint(bitPos%8) & mask)
			bitPos += int(width)
		}
	}
	for ; i < n; i++ {
		var v uint64
		got := uint(0)
		for got < width {
			b := src[bitPos/8]
			bitOff := uint(bitPos % 8)
			take := 8 - bitOff
			if rem := width - got; take > rem {
				take = rem
			}
			bits := uint64(b>>bitOff) & ((1 << take) - 1)
			v |= bits << got
			got += take
			bitPos += int(take)
		}
		out[i] = int64(v)
	}
	return (bitPos + 7) / 8
}

// refDecodeIntsInto is DecodeIntsInto over the reference decoders.
func refDecodeIntsInto(dst []int64, buf []byte) ([]int64, error) {
	s, width, n, rest, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	out := dst
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]int64, n)
	}
	switch s {
	case Raw:
		if len(rest) < 8*n {
			return nil, ErrCorrupt
		}
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		return out, nil
	case PFOR:
		return refDecodePFOR(out, rest, n, width, false)
	case PFORDelta:
		return refDecodePFOR(out, rest, n, width, true)
	case PDict:
		return refDecodeIntDict(out, rest, n, width)
	default:
		return nil, fmt.Errorf("compress: unknown scheme %v: %w", s, ErrCorrupt)
	}
}

func refDecodePFOR(out []int64, src []byte, n int, width uint, delta bool) ([]int64, error) {
	if n == 0 {
		return out[:0], nil
	}
	if len(src) < 12 {
		return nil, ErrCorrupt
	}
	base := binary.LittleEndian.Uint64(src[0:8])
	nexc := int(binary.LittleEndian.Uint32(src[8:12]))
	src = src[12:]
	if (n*int(width)+7)/8+12*nexc > len(src) {
		return nil, ErrCorrupt
	}
	src = src[refUnpackBits(out, src, n, width):]
	for i := 0; i < nexc; i++ {
		pos := int(binary.LittleEndian.Uint32(src[12*i:]))
		if pos >= n {
			return nil, ErrCorrupt
		}
		out[pos] = int64(binary.LittleEndian.Uint64(src[12*i+4:]))
	}
	if delta {
		prev := int64(0)
		for i, v := range out {
			prev += unzigzag(uint64(v))
			out[i] = prev
		}
	} else {
		for i := range out {
			out[i] += int64(base)
		}
	}
	return out, nil
}

func refDecodeIntDict(out []int64, src []byte, n int, width uint) ([]int64, error) {
	if len(src) < 8 {
		return nil, ErrCorrupt
	}
	dn := int(binary.LittleEndian.Uint64(src[0:8]))
	src = src[8:]
	if dn < 0 || dn > len(src)/8 {
		return nil, ErrCorrupt
	}
	dict := src[:8*dn]
	src = src[8*dn:]
	if len(src) < (n*int(width)+7)/8 {
		return nil, ErrCorrupt
	}
	refUnpackBits(out, src, n, width)
	for i, c := range out {
		if uint64(c) >= uint64(dn) {
			return nil, ErrCorrupt
		}
		out[i] = int64(binary.LittleEndian.Uint64(dict[8*c:]))
	}
	return out, nil
}

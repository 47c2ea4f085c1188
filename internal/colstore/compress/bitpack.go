package compress

import "encoding/binary"

// Bit-packing primitives: fixed-width little-endian packing of uint64 values
// into a byte stream. Width 0 is legal and encodes a stream of zeros in no
// bytes at all, which PFOR and PDICT exploit for constant columns.

// packBits appends the values at the given bit width (0..64) to dst and
// returns the extended slice. Values must fit in width bits.
func packBits(dst []byte, values []uint64, width uint) []byte {
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

// unpackBits reads n values of the given bit width from src into out[:n] as
// raw bit patterns — the decoders unpack straight into their output vector
// and finish it in place, so decoding has no scratch and no second buffer —
// and returns the number of bytes consumed.
func unpackBits(out []int64, src []byte, n int, width uint) int {
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
		// A value of up to 57 bits starting at any bit of a byte lies inside
		// the 8 bytes from that byte on: one load, shift and mask per value
		// for as long as 8 bytes remain; the byte-wise loop takes the tail.
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

// bitsFor returns the minimal width that can represent v.
func bitsFor(v uint64) uint {
	w := uint(0)
	for v != 0 {
		w++
		v >>= 1
	}
	return w
}

// zigzag maps signed to unsigned so small negatives stay small.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

package compress

import (
	"encoding/binary"
	"math/bits"
)

// Bit-packing primitives: fixed-width little-endian packing of uint64 values
// into a byte stream. Width 0 is legal and encodes a stream of zeros in no
// bytes at all, which PFOR and PDICT exploit for constant columns.

// packedLen returns the bytes n values of the given width occupy.
func packedLen(n int, width uint) int { return (n*int(width) + 7) / 8 }

// packBits appends the values at the given bit width (0..64) to dst and
// returns the extended slice. Values must fit in width bits. The stream is
// assembled in a 64-bit accumulator and leaves it a whole word at a time.
func packBits(dst []byte, values []uint64, width uint) []byte {
	if width > 64 {
		panic("compress: bit width > 64")
	}
	if width == 0 {
		return dst
	}
	start := len(dst)
	dst = append(dst, make([]byte, packedLen(len(values), width))...)
	out := dst[start:]
	var acc uint64 // the stream's next held bits, lowest first
	held := uint(0)
	for _, v := range values {
		if width < 64 && v>>width != 0 {
			panic("compress: value does not fit bit width")
		}
		acc |= v << held
		if held += width; held >= 64 {
			binary.LittleEndian.PutUint64(out, acc)
			out = out[8:]
			held -= 64
			acc = v >> (width - held) // the bits of v the word had no room for
		}
	}
	for ; held > 0; held -= min(held, 8) {
		out[0] = byte(acc)
		out, acc = out[1:], acc>>8
	}
	return dst
}

// unpackAdd reads len(out) values of the given bit width (0..64) from src
// and stores each of them, plus base, in out — the decoders unpack straight
// into their output vector, so decoding has no scratch and no second buffer,
// and PFOR's frame base is added while the value is in a register. src must
// hold packedLen(len(out), width) bytes; the kernels may load bytes past
// them, and mask those off.
//
// Eight values of width w occupy exactly w bytes, so every kernel below
// works a block of eight at a time from a byte boundary, with one bounds
// check per block and no per-value position arithmetic: the widths that are
// a whole number of bytes, or divide a byte, read whole bytes or words at
// literal shifts; widths below 8 take all eight values from one 8-byte load;
// the rest, up to 56 bits, take one or two values from an 8-byte load at
// offsets and shifts worked out once per call. What the block loops leave —
// wider values, a ragged tail, a last block too close to the end of src for
// an 8-byte load — goes through the bit-slicing loop.
func unpackAdd(out []int64, src []byte, width uint, base uint64) {
	done := 0
	switch {
	case width == 0:
		for i := range out {
			out[i] = int64(base)
		}
		return
	case width == 1, width == 2, width == 4:
		done = unpackSubByte(out, src, width, base)
	case width < 8:
		done = unpackNarrow(out, src, width, base)
	case width == 8:
		done = unpack8(out, src, base)
	case width == 16:
		done = unpack16(out, src, base)
	case width == 32:
		done = unpack32(out, src, base)
	case width == 64:
		done = unpack64(out, src, base)
	case width <= 28:
		done = unpackPairs(out, src, width, base)
	case width <= 56:
		done = unpackWide(out, src, width, base)
	}
	if done < len(out) {
		unpackTail(out[done:], src[done/8*int(width):], width, base)
	}
}

// The block kernels return how many values they decoded, a multiple of 8.

// unpackSubByte handles widths 1, 2 and 4: a block is one, two or four
// bytes, its values at literal shifts.
func unpackSubByte(out []int64, src []byte, width uint, base uint64) int {
	i := 0
	switch width {
	case 1:
		for ; i+8 <= len(out) && len(src) >= 1; i, src = i+8, src[1:] {
			o, x := (*[8]int64)(out[i:]), uint64(src[0])
			o[0] = int64(x&1 + base)
			o[1] = int64(x>>1&1 + base)
			o[2] = int64(x>>2&1 + base)
			o[3] = int64(x>>3&1 + base)
			o[4] = int64(x>>4&1 + base)
			o[5] = int64(x>>5&1 + base)
			o[6] = int64(x>>6&1 + base)
			o[7] = int64(x>>7 + base)
		}
	case 2:
		for ; i+8 <= len(out) && len(src) >= 2; i, src = i+8, src[2:] {
			o, x := (*[8]int64)(out[i:]), uint64(binary.LittleEndian.Uint16(src))
			o[0] = int64(x&3 + base)
			o[1] = int64(x>>2&3 + base)
			o[2] = int64(x>>4&3 + base)
			o[3] = int64(x>>6&3 + base)
			o[4] = int64(x>>8&3 + base)
			o[5] = int64(x>>10&3 + base)
			o[6] = int64(x>>12&3 + base)
			o[7] = int64(x>>14 + base)
		}
	case 4:
		for ; i+8 <= len(out) && len(src) >= 4; i, src = i+8, src[4:] {
			o, x := (*[8]int64)(out[i:]), uint64(binary.LittleEndian.Uint32(src))
			o[0] = int64(x&15 + base)
			o[1] = int64(x>>4&15 + base)
			o[2] = int64(x>>8&15 + base)
			o[3] = int64(x>>12&15 + base)
			o[4] = int64(x>>16&15 + base)
			o[5] = int64(x>>20&15 + base)
			o[6] = int64(x>>24&15 + base)
			o[7] = int64(x>>28 + base)
		}
	}
	return i
}

// unpackNarrow handles widths 3, 5, 6 and 7: a block's eight values lie
// inside one 8-byte load and come off it by repeated shifts.
func unpackNarrow(out []int64, src []byte, width uint, base uint64) int {
	mask := uint64(1)<<width - 1
	step := int(width)
	i := 0
	for ; i+8 <= len(out) && len(src) >= 8; i, src = i+8, src[step:] {
		o, lo := (*[8]int64)(out[i:]), binary.LittleEndian.Uint64(src)
		hi := lo >> (4 * width & 31)
		o[0], o[4] = int64(lo&mask+base), int64(hi&mask+base)
		lo, hi = lo>>(width&7), hi>>(width&7)
		o[1], o[5] = int64(lo&mask+base), int64(hi&mask+base)
		lo, hi = lo>>(width&7), hi>>(width&7)
		o[2], o[6] = int64(lo&mask+base), int64(hi&mask+base)
		lo, hi = lo>>(width&7), hi>>(width&7)
		o[3], o[7] = int64(lo&mask+base), int64(hi&mask+base)
	}
	return i
}

func unpack8(out []int64, src []byte, base uint64) int {
	src = src[:len(out)]
	for i, b := range src {
		out[i] = int64(uint64(b) + base)
	}
	return len(out)
}

func unpack16(out []int64, src []byte, base uint64) int {
	i := 0
	for ; i < len(out) && len(src) >= 2; i, src = i+1, src[2:] {
		out[i] = int64(uint64(binary.LittleEndian.Uint16(src)) + base)
	}
	return i
}

func unpack32(out []int64, src []byte, base uint64) int {
	i := 0
	for ; i < len(out) && len(src) >= 4; i, src = i+1, src[4:] {
		out[i] = int64(uint64(binary.LittleEndian.Uint32(src)) + base)
	}
	return i
}

func unpack64(out []int64, src []byte, base uint64) int {
	i := 0
	for ; i < len(out) && len(src) >= 8; i, src = i+1, src[8:] {
		out[i] = int64(binary.LittleEndian.Uint64(src) + base)
	}
	return i
}

// unpackPairs handles the widths from 9 to 28 that are not a whole number of
// bytes. Value j of a block starts j*width bits in — inside the 8 bytes from
// byte j*width/8 on, at a shift below 8, the same for every block — and at
// these widths the value after it lies inside the same 8 bytes: four loads
// decode a block.
func unpackPairs(out []int64, src []byte, width uint, base uint64) int {
	var off, shift [4]uint
	for j := range off {
		off[j], shift[j] = uint(2*j)*width/8, uint(2*j)*width%8
	}
	mask := uint64(1)<<width - 1
	// A block's last load ends off[3]+8 bytes in, at most 8 bytes past the
	// block, so the loop stops one load short of the end of src.
	step, reach := int(width), int(off[3])+8
	i := 0
	for ; i+8 <= len(out) && len(src) >= reach; i, src = i+8, src[step:] {
		o, b := (*[8]int64)(out[i:]), src[:reach]
		x := binary.LittleEndian.Uint64(b)
		o[0], o[1] = int64(x&mask+base), int64(x>>(width&31)&mask+base)
		x = binary.LittleEndian.Uint64(b[off[1]:]) >> (shift[1] & 7)
		o[2], o[3] = int64(x&mask+base), int64(x>>(width&31)&mask+base)
		x = binary.LittleEndian.Uint64(b[off[2]:]) >> (shift[2] & 7)
		o[4], o[5] = int64(x&mask+base), int64(x>>(width&31)&mask+base)
		x = binary.LittleEndian.Uint64(b[off[3]:]) >> (shift[3] & 7)
		o[6], o[7] = int64(x&mask+base), int64(x>>(width&31)&mask+base)
	}
	return i
}

// unpackWide handles the widths from 29 to 56 that are not a whole number of
// bytes: as unpackPairs, with a load per value.
func unpackWide(out []int64, src []byte, width uint, base uint64) int {
	var off, shift [8]uint
	for j := range off {
		off[j], shift[j] = uint(j)*width/8, uint(j)*width%8
	}
	mask := uint64(1)<<width - 1
	step, reach := int(width), int(off[7])+8
	i := 0
	for ; i+8 <= len(out) && len(src) >= reach; i, src = i+8, src[step:] {
		o, b := (*[8]int64)(out[i:]), src[:reach]
		o[0] = int64(binary.LittleEndian.Uint64(b)&mask + base)
		o[1] = int64(binary.LittleEndian.Uint64(b[off[1]:])>>(shift[1]&7)&mask + base)
		o[2] = int64(binary.LittleEndian.Uint64(b[off[2]:])>>(shift[2]&7)&mask + base)
		o[3] = int64(binary.LittleEndian.Uint64(b[off[3]:])>>(shift[3]&7)&mask + base)
		o[4] = int64(binary.LittleEndian.Uint64(b[off[4]:])>>(shift[4]&7)&mask + base)
		o[5] = int64(binary.LittleEndian.Uint64(b[off[5]:])>>(shift[5]&7)&mask + base)
		o[6] = int64(binary.LittleEndian.Uint64(b[off[6]:])>>(shift[6]&7)&mask + base)
		o[7] = int64(binary.LittleEndian.Uint64(b[off[7]:])>>(shift[7]&7)&mask + base)
	}
	return i
}

// unpackTail is the careful loop: any width, any count, from a byte
// boundary, one bit-slice of one byte at a time.
func unpackTail(out []int64, src []byte, width uint, base uint64) {
	bitPos := 0
	for i := range out {
		var v uint64
		got := uint(0)
		for got < width {
			b := src[bitPos/8]
			bitOff := uint(bitPos % 8)
			take := min(8-bitOff, width-got)
			v |= uint64(b>>bitOff) & (1<<take - 1) << got
			got += take
			bitPos += int(take)
		}
		out[i] = int64(v + base)
	}
}

// bitsFor returns the minimal width that can represent v.
func bitsFor(v uint64) uint { return uint(bits.Len64(v)) }

// zigzag maps signed to unsigned so small negatives stay small.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

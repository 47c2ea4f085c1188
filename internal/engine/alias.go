package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// A part is a typed column vector — []int64 — from the frame allocator to
// the kernels, and the same memory is a []byte to pread, the page checksums
// and serve's receipts. This file is the one place the two views are made
// from each other, and the only use of unsafe in the tree. The views agree
// with the file format (8-byte little-endian words) only on a little-endian
// host, which Open and Create insist on (checkByteOrder).

// ErrUnaligned: a caller's byte buffer cannot be viewed as int64 words — its
// length is not a multiple of 8 or it does not start on an 8-byte boundary
// (a sub-slice such as buf[1:]; whole allocations of 8 bytes or more always
// do). ReadPageRange returns it rather than misread or copy.
var ErrUnaligned = errors.New("engine: byte buffer is not a whole number of 8-byte-aligned words")

// ErrByteOrder: table files hold little-endian words and parts are read
// in place as native int64s, so a big-endian host is refused at Open/Create
// instead of being served byte-swapped tuples.
var ErrByteOrder = errors.New("engine: table files need a little-endian host")

// checkByteOrder returns ErrByteOrder on a host whose native order is not
// the file format's.
func checkByteOrder() error {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return ErrByteOrder
	}
	return nil
}

// wordBytes returns the bytes of vals: the view pread fills and the
// checksums cover (nil for nil). Always valid — a []int64 is 8-aligned and
// whole.
func wordBytes(vals []int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*8)
}

// bytesWords returns buf viewed as int64 words, or ErrUnaligned when buf is
// not a whole number of aligned words.
func bytesWords(buf []byte) ([]int64, error) {
	p := unsafe.SliceData(buf)
	if len(buf)%8 != 0 || uintptr(unsafe.Pointer(p))%8 != 0 {
		return nil, fmt.Errorf("engine: %d-byte buffer at offset %d mod 8: %w",
			len(buf), uintptr(unsafe.Pointer(p))%8, ErrUnaligned)
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(p)), len(buf)/8), nil
}

// Package compress implements the lightweight column compression schemes the
// Cooperative Scans paper assumes for its DSM storage (after Zukowski et al.,
// "Super-Scalar RAM-CPU Cache Compression", ICDE 2006): PFOR (patched
// frame-of-reference), PFOR-DELTA (PFOR over deltas) and PDICT (dictionary
// encoding), plus an uncompressed Raw fallback.
//
// The codecs are real: they round-trip data, and the DSM experiments use
// their output sizes to derive per-column physical widths (e.g. the paper's
// Figure 9 shows an orderkey column at 3 bits/value after PFOR-DELTA).
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Scheme identifies a compression scheme.
type Scheme uint8

// Supported schemes.
const (
	Raw Scheme = iota
	PFOR
	PFORDelta
	PDict
)

func (s Scheme) String() string {
	switch s {
	case Raw:
		return "raw"
	case PFOR:
		return "pfor"
	case PFORDelta:
		return "pfor-delta"
	case PDict:
		return "pdict"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// ErrCorrupt is returned when a buffer cannot be decoded.
var ErrCorrupt = errors.New("compress: corrupt buffer")

// maxValues bounds the per-buffer value count a decoder will accept. Extents
// are encoded one (chunk,column) stripe at a time, far below this; anything
// larger is a corrupt header and must not drive allocation sizing (a width-0
// PFOR buffer is a few bytes regardless of its claimed n, so the cap is what
// keeps adversarial headers from becoming decompression bombs).
const maxValues = 1 << 20

// header layout (little endian):
//
//	byte 0    scheme
//	byte 1    bit width (PFOR/PFORDelta: packed width; PDict: index width)
//	bytes 2-9 n (number of values)
//	then scheme-specific payload
const headerSize = 10

func putHeader(dst []byte, s Scheme, width uint, n int) []byte {
	dst = append(dst, byte(s), byte(width))
	var nb [8]byte
	binary.LittleEndian.PutUint64(nb[:], uint64(n))
	return append(dst, nb[:]...)
}

func readHeader(src []byte) (s Scheme, width uint, n int, rest []byte, err error) {
	if len(src) < headerSize {
		return 0, 0, 0, nil, ErrCorrupt
	}
	s = Scheme(src[0])
	width = uint(src[1])
	n64 := binary.LittleEndian.Uint64(src[2:10])
	if n64 > maxValues || width > 64 {
		return 0, 0, 0, nil, ErrCorrupt
	}
	return s, width, int(n64), src[headerSize:], nil
}

// EncodeInts compresses values with the given scheme. PDict works for
// integer data too (useful for low-cardinality flag columns).
func EncodeInts(s Scheme, values []int64) ([]byte, error) {
	switch s {
	case Raw:
		return encodeRaw(values), nil
	case PFOR:
		return encodePFOR(values, false), nil
	case PFORDelta:
		return encodePFOR(values, true), nil
	case PDict:
		return encodeIntDict(values)
	default:
		return nil, fmt.Errorf("compress: unknown scheme %v", s)
	}
}

// DecodeInts decompresses a buffer produced by EncodeInts.
func DecodeInts(buf []byte) ([]int64, error) {
	return DecodeIntsInto(nil, buf)
}

// DecodeIntsInto decompresses like DecodeInts but reuses dst's backing array
// when it is large enough, so a hot decode loop allocates nothing: the live
// engine hands it the words of the buffer frame the part lands in, and the
// codec's output is the part. The returned slice is the decoded data. It is
// Check followed by DecodeChecked, so a buffer that fails leaves dst as it
// was.
func DecodeIntsInto(dst []int64, buf []byte) ([]int64, error) {
	if _, err := Check(buf); err != nil {
		return nil, err
	}
	return DecodeChecked(dst, buf), nil
}

// Check makes every test of buf's structure the decoder relies on — header,
// payload lengths, exception positions, dictionary codes — and returns the
// number of values buf decodes to, or the error DecodeIntsInto returns for
// it. It writes nothing, so a reader can check a stored buffer where it lies
// and decode it later, with DecodeChecked.
func Check(buf []byte) (int, error) {
	s, width, n, rest, err := readHeader(buf)
	if err != nil {
		return 0, err
	}
	switch s {
	case Raw:
		if len(rest) < 8*n {
			err = ErrCorrupt
		}
	case PFOR, PFORDelta:
		_, _, err = pforParts(rest, n, width)
	case PDict:
		err = checkIntDict(rest, n, width)
	default:
		err = fmt.Errorf("compress: unknown scheme %v: %w", s, ErrCorrupt)
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// DecodeChecked decodes a buffer Check accepted into dst's backing array when
// it is large enough (else into a new one) and returns the values. It has no
// error path: handed a buffer Check refuses, it may panic.
func DecodeChecked(dst []int64, buf []byte) []int64 {
	s, width, n, rest, _ := readHeader(buf)
	out := dst
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]int64, n)
	}
	switch s {
	case Raw:
		unpack64(out, rest, 0)
	case PFOR, PFORDelta:
		decodePFOR(out, rest, width, s == PFORDelta)
	case PDict:
		decodeIntDict(out, rest, width)
	}
	return out
}

func encodeRaw(values []int64) []byte {
	out := putHeader(make([]byte, 0, headerSize+8*len(values)), Raw, 64, len(values))
	var b [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		out = append(out, b[:]...)
	}
	return out
}

// encodePFOR implements patched frame-of-reference: values are encoded as
// bit-packed offsets from the frame minimum at a width chosen so that at
// least excThreshold of the values fit; the rest become exceptions patched
// in from an exception list. With delta=true, consecutive differences are
// encoded instead (zigzagged, so descending runs stay cheap).
func encodePFOR(values []int64, delta bool) []byte {
	scheme := PFOR
	work := values
	if delta {
		scheme = PFORDelta
		work = make([]int64, len(values))
		prev := int64(0)
		for i, v := range values {
			work[i] = v - prev
			prev = v
		}
	}
	n := len(work)
	if n == 0 {
		return putHeader(nil, scheme, 0, 0)
	}

	// Transform to unsigned offsets: zigzagged deltas, or offsets from the
	// frame minimum (the minimum is stored in the payload as the base).
	u := make([]uint64, n)
	if delta {
		for i, v := range work {
			u[i] = zigzag(v)
		}
		return pforPayload(scheme, u, 0)
	}
	minV := work[0]
	for _, v := range work {
		if v < minV {
			minV = v
		}
	}
	for i, v := range work {
		u[i] = uint64(v - minV)
	}
	return pforPayload(scheme, u, uint64(minV))
}

const excThreshold = 0.98 // fraction of values that must fit the packed width

func pforPayload(scheme Scheme, u []uint64, base uint64) []byte {
	n := len(u)
	// Histogram of required widths; pick the smallest width covering the
	// threshold, but only if the exception overhead pays off.
	var hist [65]int
	for _, v := range u {
		hist[bitsFor(v)]++
	}
	bestWidth, covered := uint(64), 0
	limit := int(float64(n) * excThreshold)
	if limit < 1 {
		limit = 1
	}
	for w := uint(0); w <= 64; w++ {
		covered += hist[w]
		if covered >= limit {
			bestWidth = w
			break
		}
	}
	// Cost-compare candidate widths around the threshold choice: sometimes
	// taking a wider width with zero exceptions is cheaper.
	cost := func(w uint) int {
		exc := 0
		for ww := w + 1; ww <= 64; ww++ {
			exc += hist[ww]
		}
		return (n*int(w)+7)/8 + exc*12
	}
	for w := bestWidth + 1; w <= 64; w++ {
		if cost(w) < cost(bestWidth) {
			bestWidth = w
		}
	}

	var maxFit uint64 = ^uint64(0)
	if bestWidth < 64 {
		maxFit = (uint64(1) << bestWidth) - 1
	}
	type exception struct {
		pos int
		val uint64
	}
	var excs []exception
	for i, v := range u {
		if v > maxFit {
			excs = append(excs, exception{i, v})
			u[i] = 0 // an exception's packed slot holds zero
		}
	}

	out := putHeader(nil, scheme, bestWidth, n)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], base)
	out = append(out, b[:]...)
	var e4 [4]byte
	binary.LittleEndian.PutUint32(e4[:], uint32(len(excs)))
	out = append(out, e4[:]...)
	out = packBits(out, u, bestWidth)
	for _, e := range excs {
		binary.LittleEndian.PutUint32(e4[:], uint32(e.pos))
		out = append(out, e4[:]...)
		binary.LittleEndian.PutUint64(b[:], e.val)
		out = append(out, b[:]...)
	}
	return out
}

// blockValues is how many values the decoders that finish a value after
// unpacking it work on at a time: 4 KiB of output, so the finishing loop
// finds in L1 what the unpack loop just stored, and a column makes one trip
// through memory. A multiple of 8, so every block starts on a byte of the
// packed stream.
const blockValues = 512

// pforParts splits a PFOR or PFOR-DELTA payload — base, exception count,
// packed values, exception list of (position, value) pairs — checking that
// the payload holds them and that every exception position lies below n, and
// reports whether the positions are strictly ascending, as the encoder
// writes them. The packed values start at byte 12 of src.
func pforParts(src []byte, n int, width uint) (excs []byte, ascending bool, err error) {
	if n == 0 {
		return nil, true, nil
	}
	if len(src) < 12 {
		return nil, false, ErrCorrupt
	}
	nexc := int(binary.LittleEndian.Uint32(src[8:12]))
	packed := packedLen(n, width)
	if packed+12*nexc > len(src)-12 {
		return nil, false, ErrCorrupt
	}
	excs = src[12+packed:][:12*nexc]
	ascending = true
	for e, last := excs, -1; len(e) >= 12; e = e[12:] {
		pos := int(binary.LittleEndian.Uint32(e))
		if pos >= n {
			return nil, false, ErrCorrupt
		}
		ascending = ascending && pos > last
		last = pos
	}
	return excs, ascending, nil
}

// decodePFOR decodes a checked PFOR or PFOR-DELTA payload into out. PFOR
// adds the base as it unpacks and patches its exceptions, base added,
// afterwards: the patches are independent stores. PFOR-DELTA must see a
// patched delta before the running sum passes it, so it works a block at a
// time — unpack, patch from a cursor over the exception list, sum — which
// needs the list's positions strictly ascending. Any other list (duplicates,
// where the last entry wins; unsorted) is decoded the long way: unpack
// everything, patch in list order, sum.
func decodePFOR(out []int64, src []byte, width uint, delta bool) {
	n := len(out)
	excs, ascending, _ := pforParts(src, n, width)
	if n == 0 {
		return
	}
	base := binary.LittleEndian.Uint64(src[0:8])
	src = src[12:]
	if !delta || !ascending {
		if delta {
			base = 0
		}
		unpackAdd(out, src, width, base)
		for e := excs; len(e) >= 12; e = e[12:] {
			out[binary.LittleEndian.Uint32(e)] = int64(binary.LittleEndian.Uint64(e[4:]) + base)
		}
		if delta {
			prefixSum(out, 0)
		}
		return
	}
	sum := int64(0)
	for i := 0; i < n; i += blockValues {
		end := min(i+blockValues, n)
		blk := out[i:end]
		unpackAdd(blk, src[i/8*int(width):], width, 0)
		for ; len(excs) >= 12; excs = excs[12:] {
			pos := int(binary.LittleEndian.Uint32(excs))
			if pos >= end {
				break
			}
			blk[pos-i] = int64(binary.LittleEndian.Uint64(excs[4:]))
		}
		sum = prefixSum(blk, sum)
	}
}

// prefixSum replaces each zigzagged delta in vals by the running sum that
// starts at sum, and returns where it ends.
func prefixSum(vals []int64, sum int64) int64 {
	for i, v := range vals {
		sum += unzigzag(uint64(v))
		vals[i] = sum
	}
	return sum
}

// encodeIntDict builds the dictionary from a sorted, deduplicated copy of
// the values and finds each value's code by search in it: by counting the
// entries below the value, without a branch, in a dictionary of up to
// smallDict entries — the flag columns the scheme exists for — and by binary
// search in a larger one. No map, and the bytes the map-built encoder wrote.
func encodeIntDict(values []int64) ([]byte, error) {
	dict := slices.Clone(values)
	slices.Sort(dict)
	dict = slices.Compact(dict)
	width := bitsFor(uint64(len(dict) - 1))
	if len(dict) <= 1 {
		width = 0
	}
	codes := make([]uint64, len(values))
	if len(dict) > smallDict {
		for i, v := range values {
			c, _ := slices.BinarySearch(dict, v)
			codes[i] = uint64(c)
		}
	} else {
		for i, v := range values {
			for _, e := range dict {
				codes[i] += uint64(b2u(e < v))
			}
		}
	}
	out := putHeader(nil, PDict, width, len(values))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(dict)))
	out = append(out, b[:]...)
	for _, v := range dict {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		out = append(out, b[:]...)
	}
	return packBits(out, codes, width), nil
}

// smallDict is the largest dictionary encodeIntDict searches by counting.
const smallDict = 16

// b2u is the branch-free bool → 0/1.
func b2u(b bool) uint {
	if b {
		return 1
	}
	return 0
}

// dictParts splits a PDICT payload — entry count, entries, packed codes —
// checking that it holds them.
func dictParts(src []byte, n int, width uint) (dn uint64, dict, codes []byte, err error) {
	if len(src) < 8 {
		return 0, nil, nil, ErrCorrupt
	}
	dn = binary.LittleEndian.Uint64(src[0:8])
	src = src[8:]
	if dn > uint64(len(src)/8) { // divide: 8*dn overflows on adversarial sizes
		return 0, nil, nil, ErrCorrupt
	}
	dict, codes = src[:8*dn], src[8*dn:]
	if len(codes) < packedLen(n, width) {
		return 0, nil, nil, ErrCorrupt
	}
	return dn, dict, codes, nil
}

// checkIntDict checks a PDICT payload: its parts, and every code below the
// entry count. A width whose every code is below it needs no look at the
// codes. At widths 1, 2 and 4 the packed codes are tested eight bytes at a
// time where they lie (subByteCodesBelow); the rest, and the other widths,
// are unpacked a block at a time onto the stack.
func checkIntDict(src []byte, n int, width uint) error {
	dn, _, codes, err := dictParts(src, n, width)
	if err != nil || n == 0 || (width < 64 && dn >= 1<<width) {
		return err
	}
	i := 0
	if width == 1 || width == 2 || width == 4 {
		var ok bool
		if i, ok = subByteCodesBelow(codes[:n*int(width)/8], width, dn); !ok {
			return ErrCorrupt
		}
	}
	var blk [blockValues]int64
	for ; i < n; i += blockValues {
		b := blk[:min(blockValues, n-i)]
		unpackAdd(b, codes[i/8*int(width):], width, 0)
		var top uint64
		for _, c := range b {
			top = max(top, uint64(c))
		}
		if top >= dn {
			return ErrCorrupt
		}
	}
	return nil
}

// decodeIntDict decodes a checked PDICT payload into out. A dictionary of up
// to 256 entries — the flag columns the scheme exists for — is copied once
// into a table on the stack, which a code indexes without a bounds check; a
// larger one is read where it lies. At widths 1, 2 and 4 with the table,
// each code goes through it as it is unpacked (unpackDict): one pass.
// Otherwise, and for the ragged tail, it unpacks a block of codes into the
// output and replaces each by its entry while the block is in L1.
func decodeIntDict(out []int64, src []byte, width uint) {
	n := len(out)
	dn, dict, src, _ := dictParts(src, n, width)
	var table [256]int64
	small := dn <= uint64(len(table))
	if small {
		unpack64(table[:dn], dict, 0)
	}
	i := 0
	if small && (width == 1 || width == 2 || width == 4) {
		i = unpackDict(out, src, width, &table)
	}
	for ; i < n; i += blockValues {
		blk := out[i:min(i+blockValues, n)]
		unpackAdd(blk, src[i/8*int(width):], width, 0)
		if small {
			for j, c := range blk {
				blk[j] = table[uint8(c)]
			}
			continue
		}
		for j, c := range blk {
			blk[j] = int64(binary.LittleEndian.Uint64(dict[8*c:]))
		}
	}
}

// BitsPerValue reports the effective storage density of an encoded buffer in
// bits per value; the DSM layouts use it to size physical column extents.
func BitsPerValue(buf []byte) (float64, error) {
	_, _, n, _, err := readHeader(buf)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	return float64(len(buf)-headerSize) * 8 / float64(n), nil
}

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
	"sort"
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
// when it is large enough, so hot decode loops (the live engine decompresses
// one extent per pinned page) can hold per-worker scratch instead of
// allocating per call. The returned slice is the decoded data; dst's contents
// are overwritten.
func DecodeIntsInto(dst []int64, buf []byte) ([]int64, error) {
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
		return decodeRaw(out, rest, n)
	case PFOR:
		return decodePFOR(out, rest, n, width, false)
	case PFORDelta:
		return decodePFOR(out, rest, n, width, true)
	case PDict:
		return decodeIntDict(out, rest, n, width)
	default:
		return nil, fmt.Errorf("compress: unknown scheme %v: %w", s, ErrCorrupt)
	}
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

func decodeRaw(out []int64, src []byte, n int) ([]int64, error) {
	if len(src) < 8*n {
		return nil, ErrCorrupt
	}
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out, nil
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
	packed := make([]uint64, n)
	type exception struct {
		pos int
		val uint64
	}
	var excs []exception
	for i, v := range u {
		if v > maxFit {
			packed[i] = 0
			excs = append(excs, exception{i, v})
		} else {
			packed[i] = v
		}
	}

	out := putHeader(nil, scheme, bestWidth, n)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], base)
	out = append(out, b[:]...)
	var e4 [4]byte
	binary.LittleEndian.PutUint32(e4[:], uint32(len(excs)))
	out = append(out, e4[:]...)
	out = packBits(out, packed, bestWidth)
	for _, e := range excs {
		binary.LittleEndian.PutUint32(e4[:], uint32(e.pos))
		out = append(out, e4[:]...)
		binary.LittleEndian.PutUint64(b[:], e.val)
		out = append(out, b[:]...)
	}
	return out
}

func decodePFOR(out []int64, src []byte, n int, width uint, delta bool) ([]int64, error) {
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
	// Unpack into out, patch the exceptions, then finish in place.
	src = src[unpackBits(out, src, n, width):]
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

func encodeIntDict(values []int64) ([]byte, error) {
	uniq := make(map[int64]struct{}, 64)
	for _, v := range values {
		uniq[v] = struct{}{}
	}
	dict := make([]int64, 0, len(uniq))
	for v := range uniq {
		dict = append(dict, v)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	idx := make(map[int64]uint64, len(dict))
	for i, v := range dict {
		idx[v] = uint64(i)
	}
	width := bitsFor(uint64(len(dict) - 1))
	if len(dict) <= 1 {
		width = 0
	}
	codes := make([]uint64, len(values))
	for i, v := range values {
		codes[i] = idx[v]
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

func decodeIntDict(out []int64, src []byte, n int, width uint) ([]int64, error) {
	if len(src) < 8 {
		return nil, ErrCorrupt
	}
	dn := int(binary.LittleEndian.Uint64(src[0:8]))
	src = src[8:]
	if dn < 0 || dn > len(src)/8 { // divide: 8*dn overflows on adversarial sizes
		return nil, ErrCorrupt
	}
	dict := src[:8*dn]
	src = src[8*dn:]
	if len(src) < (n*int(width)+7)/8 {
		return nil, ErrCorrupt
	}
	// Unpack the codes into out, then replace each by its dictionary entry,
	// read where it lies.
	unpackBits(out, src, n, width)
	for i, c := range out {
		if uint64(c) >= uint64(dn) {
			return nil, ErrCorrupt
		}
		out[i] = int64(binary.LittleEndian.Uint64(dict[8*c:]))
	}
	return out, nil
}

// EncodeStrings dictionary-compresses a string column (the paper's
// PDICT(str) in Figure 9). Raw is also accepted.
func EncodeStrings(s Scheme, values []string) ([]byte, error) {
	switch s {
	case PDict:
		return encodeStringDict(values)
	case Raw:
		out := putHeader(nil, Raw, 0, len(values))
		var b [4]byte
		for _, v := range values {
			binary.LittleEndian.PutUint32(b[:], uint32(len(v)))
			out = append(out, b[:]...)
			out = append(out, v...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("compress: scheme %v not supported for strings", s)
	}
}

// DecodeStrings decompresses a buffer produced by EncodeStrings.
func DecodeStrings(buf []byte) ([]string, error) {
	s, width, n, rest, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	switch s {
	case PDict:
		return decodeStringDict(rest, n, width)
	case Raw:
		capHint := n
		if max := len(rest) / 4; capHint > max {
			capHint = max
		}
		out := make([]string, 0, capHint)
		for i := 0; i < n; i++ {
			if len(rest) < 4 {
				return nil, ErrCorrupt
			}
			l := int(binary.LittleEndian.Uint32(rest))
			rest = rest[4:]
			if len(rest) < l {
				return nil, ErrCorrupt
			}
			out = append(out, string(rest[:l]))
			rest = rest[l:]
		}
		return out, nil
	default:
		return nil, fmt.Errorf("compress: scheme %v not supported for strings: %w", s, ErrCorrupt)
	}
}

func encodeStringDict(values []string) ([]byte, error) {
	uniq := make(map[string]struct{}, 64)
	for _, v := range values {
		uniq[v] = struct{}{}
	}
	dict := make([]string, 0, len(uniq))
	for v := range uniq {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	idx := make(map[string]uint64, len(dict))
	for i, v := range dict {
		idx[v] = uint64(i)
	}
	width := bitsFor(uint64(len(dict) - 1))
	if len(dict) <= 1 {
		width = 0
	}
	codes := make([]uint64, len(values))
	for i, v := range values {
		codes[i] = idx[v]
	}
	out := putHeader(nil, PDict, width, len(values))
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(dict)))
	out = append(out, b[:]...)
	for _, v := range dict {
		binary.LittleEndian.PutUint32(b[:], uint32(len(v)))
		out = append(out, b[:]...)
		out = append(out, v...)
	}
	return packBits(out, codes, width), nil
}

func decodeStringDict(src []byte, n int, width uint) ([]string, error) {
	if len(src) < 4 {
		return nil, ErrCorrupt
	}
	dn := int(binary.LittleEndian.Uint32(src[0:4]))
	src = src[4:]
	// Each dictionary entry costs at least its 4-byte length prefix, so a
	// claimed size beyond len(src)/4 cannot be backed by real data.
	if dn > len(src)/4 {
		return nil, ErrCorrupt
	}
	dict := make([]string, dn)
	for i := range dict {
		if len(src) < 4 {
			return nil, ErrCorrupt
		}
		l := int(binary.LittleEndian.Uint32(src))
		src = src[4:]
		if len(src) < l {
			return nil, ErrCorrupt
		}
		dict[i] = string(src[:l])
		src = src[l:]
	}
	if len(src) < (n*int(width)+7)/8 {
		return nil, ErrCorrupt
	}
	codes := make([]int64, n)
	unpackBits(codes, src, n, width)
	out := make([]string, n)
	for i, c := range codes {
		if uint64(c) >= uint64(dn) {
			return nil, ErrCorrupt
		}
		out[i] = dict[c]
	}
	return out, nil
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

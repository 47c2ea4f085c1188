package serve

import (
	"hash/crc32"

	"coopscan/internal/engine"
	"coopscan/internal/storage"
)

// ChunkCRC is the (chunk, projection) receipt checksum: CRC-32 (IEEE) over
// the valid prefix (Tuples × column width) of each projected column,
// ascending column order. Clients can recompute it from a local copy of the
// table to verify the stream byte-for-byte; it is the one spelling of the
// receipt on the serving side.
//
// The bytes are not hashed here. Each column's sum is a function of its part
// alone, so the engine takes it once per residency (ChunkData.ColCRC) and
// every session that is delivered the part shares it; a session only folds
// the sums of its own projection together, which costs O(columns).
func ChunkCRC(cols storage.ColSet, d engine.ChunkData) uint32 {
	crc := uint32(0)
	cols.Each(func(col int) {
		crc = crcCombine(crc, d.ColCRC(col), d.Tuples()*engine.ColWidth(col))
	})
	return crc
}

// crcCombine returns the CRC-32 (IEEE) of A‖B from crcA = crc(A), crcB =
// crc(B) and B's length in bytes. Appending len(B) zero bytes to A multiplies
// A's CRC register by x^(8·len B) modulo the CRC polynomial P, and the
// pre- and post-conditioning cancel against B's, leaving
//
//	crc(A‖B) = crc(A)·x^(8·len B) mod P  ⊕  crc(B)
//
// The power is assembled from the table of x^(2^n) by the set bits of the
// length, so the cost is one 32-step carry-less multiply per set bit plus
// one for the product: O(log len B), independent of the data.
func crcCombine(crcA, crcB uint32, lenB int64) uint32 {
	return mulModP(xPowModP(uint64(lenB), 3), crcA) ^ crcB
}

// Polynomials over GF(2) modulo P are held bit-reflected, as the CRC
// register holds them: bit 31 is the coefficient of x^0, bit 0 of x^31.
const (
	polyOne = uint32(1) << 31 // x^0
	polyX   = uint32(1) << 30 // x^1
)

// x2n[n] is x^(2^n) mod P.
var x2n = func() (t [32]uint32) {
	p := polyX
	t[0] = p
	for n := 1; n < len(t); n++ {
		p = mulModP(p, p)
		t[n] = p
	}
	return t
}()

// mulModP returns a·b mod P: for each term x^i of a, from x^0 up, add b·x^i,
// stepping b to b·x (a shift towards bit 0, reduced by P when x^31 carries
// out) between terms, until a has no terms left.
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := polyOne; a != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			a &^= m
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
	return p
}

// xPowModP returns x^(n·2^k) mod P. The order of x modulo P divides 2^32−1,
// so x^(2^32) = x and the table's index wraps at 32.
func xPowModP(n uint64, k uint) uint32 {
	p := polyOne
	for ; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = mulModP(x2n[k&31], p)
		}
	}
	return p
}

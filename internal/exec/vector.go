package exec

import (
	"math"

	"coopscan/internal/storage"
)

// The live kernel set: the paper's two benchmark queries over typed column
// vectors, in the style of the MonetDB/X100 host Cooperative Scans was built
// in (§2, §7.2) — CScan hands a chunk's columns to operators that work a
// fixed-size vector at a time and pass qualifying row positions on as a
// selection vector, so a conjunct only touches the rows (and the columns)
// that survived the conjuncts before it. The kernels take plain []int64
// slices — the engine's frames are exactly that — and allocate nothing per
// call beyond Q1's result. Q6Chunk/Q1Chunk (exec.go) stay independent scalar
// code over the generator: they are the reference every test and the
// benchmark's oracle compare these against.

// vecRows is the vector size: rows per selection pass. One vector of each Q6
// column (4 × 8 KiB) plus the selection scratch stays inside L1.
const vecRows = 1024

// b2i is the branch-free bool → 0/1 the selection passes advance their
// output cursor by (the compiler lowers it to a flag set, not a jump).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Ranges renders the conjuncts as the inclusive intervals a zonemap is asked
// about (engine.Q6Preds names their columns). DateHi-1 and MaxQty-1 wrap only
// when the conjunct is empty; the wrapped interval keeps more: safe for
// pruning alone — Decide answers empty conjuncts from the fields themselves.
func (p Q6Predicate) Ranges() (date, disc, qty storage.Zone) {
	return storage.Zone{Lo: p.DateLo, Hi: p.DateHi - 1}, storage.Zone{Lo: p.DiscLo, Hi: p.DiscHi},
		storage.Zone{Lo: math.MinInt64, Hi: p.MaxQty - 1}
}

// Decide asks a chunk's bounds what they already answer: None when a
// conjunct is empty or excluded (no row qualifies), All when every row passes
// the date conjunct, Some otherwise. Only the date conjunct gets an All: the
// table is stored in date order, so four of 48 chunks lie inside DefaultQ6's
// year, while discount and quantity are uniform in every chunk — their bounds
// never decide, and six more kernel shapes for them would be dead code.
func (p Q6Predicate) Decide(dates, discs, qtys storage.Zone) storage.Decided {
	date, disc, qty := p.Ranges()
	if p.DateHi <= p.DateLo || p.DiscHi < p.DiscLo || p.MaxQty == math.MinInt64 ||
		discs.Decide(disc.Lo, disc.Hi) == storage.None || qtys.Decide(qty.Lo, qty.Hi) == storage.None {
		return storage.None
	}
	return dates.Decide(date.Lo, date.Hi)
}

// Q6Kernel evaluates the FAST query over one chunk's column vectors
// (dates[i], disc[i], qty[i], price[i] are row i; all four must be at least
// len(dates) long) and the chunk's bounds on the first three. It computes
// exactly Q6Chunk's aggregate, wrap-around included, for any predicate and
// any bounds that hold, and reports what the bounds decided: on None it
// reads no column, on All not the dates.
//
// Vector at a time: the date conjunct runs first over the whole vector and
// writes the selection; on a chunk across an end of the date range (no other
// still runs it) many vectors qualify no row and touch neither disc, qty nor
// price. The two range conjuncts are one unsigned compare each: for lo ≤ hi,
// v ∈ [lo, hi) iff uint64(v-lo) < uint64(hi-lo), the subtraction wrapping
// the interval onto [0, width) whatever the signs.
func Q6Kernel(dates, disc, qty, price []int64, pred Q6Predicate, dateZ, discZ, qtyZ storage.Zone) (res Q6Result, decided storage.Decided) {
	if decided = pred.Decide(dateZ, discZ, qtyZ); decided == storage.None {
		return res, decided
	}
	dateLo, dateW := pred.DateLo, uint64(pred.DateHi)-uint64(pred.DateLo)
	discLo, discW := pred.DiscLo, uint64(pred.DiscHi)-uint64(pred.DiscLo)
	maxQty := pred.MaxQty

	// Offsets within the vector: 2 KiB of stack per call, not 4 — 512
	// streams run this concurrently on the resident-fanin workload.
	var sel [vecRows]uint16
	for len(dates) > 0 {
		m := len(dates)
		if m > vecRows {
			m = vecRows
		}
		var k int
		if decided == storage.All {
			k = selRangeLessEvery(&sel, disc[:m], discLo, discW, qty[:m], maxQty)
		} else if k = selRange(&sel, dates[:m], dateLo, dateW); k > 0 {
			k = selRangeLess(&sel, k, disc[:m], discLo, discW, qty[:m], maxQty)
		}
		if k > 0 {
			res.Revenue += mulSumSel(sel[:k], price[:m], disc[:m])
			res.Rows += int64(k)
		}
		dates, disc, qty, price = dates[m:], disc[m:], qty[m:], price[m:]
	}
	return res, decided
}

// The four vector primitives below are functions of their own, kept from
// being inlined back, so each compiles to a loop over a handful of
// registers: as loops inside Q6Kernel, among its dozen live slice headers,
// the register allocator spilled the cursors inside every pass (2.0 against
// 1.0 ns/tuple on BenchmarkQ6Kernel). One call per primitive per 1024 rows
// costs nothing.

// selRange writes the positions i of col (at most vecRows long) with
// uint64(col[i]-lo) < w into sel, ascending, and returns how many.
//
//go:noinline
func selRange(sel *[vecRows]uint16, col []int64, lo int64, w uint64) int {
	k := 0
	for i, v := range col {
		// k ≤ i < vecRows: the mask only tells the compiler so.
		sel[k&(vecRows-1)] = uint16(i)
		k += b2i(uint64(v-lo) < w)
	}
	return k
}

// selRangeLess narrows sel[:k] in place to the positions with
// uint64(a[i]-lo) <= w and b[i] < max, and returns how many remain.
//
//go:noinline
func selRangeLess(sel *[vecRows]uint16, k int, a []int64, lo int64, w uint64, b []int64, max int64) int {
	n := 0
	for _, i := range sel[:k] {
		sel[n&(vecRows-1)] = i
		n += b2i(uint64(a[i]-lo) <= w) & b2i(b[i] < max)
	}
	return n
}

// selRangeLessEvery is selRangeLess as the first pass — the bounds decided
// the one before it — over every position of a (at most vecRows, b as long).
//
//go:noinline
func selRangeLessEvery(sel *[vecRows]uint16, a []int64, lo int64, w uint64, b []int64, max int64) int {
	k := 0
	b = b[:len(a)]
	for i, v := range a {
		sel[k&(vecRows-1)] = uint16(i)
		k += b2i(uint64(v-lo) <= w) & b2i(b[i] < max)
	}
	return k
}

// mulSumSel sums a[i]*b[i] over the selection (Q6's revenue expression).
//
//go:noinline
func mulSumSel(sel []uint16, a, b []int64) int64 {
	var s int64
	for _, i := range sel {
		s += a[i] * b[i]
	}
	return s
}

// q1Slots is how many groups Q1Kernel's fixed table holds: TPC-H Q1 has
// (flag, status) ∈ {A,N,R} × {F,O}, six groups at most; a chunk with more
// than eight distinct keys folds the rest through a map.
const q1Slots = 8

// q1Table is Q1Kernel's accumulator: an open-addressed table of 2×q1Slots
// entries on the stack, never more than half full, so a probe ends at the
// key or at an empty entry after a step or two — and, unlike a scan of the
// used keys, takes the same (predictable) branches whichever group a row
// belongs to.
type q1Table struct {
	keys   [2 * q1Slots]uint32 // (flag<<8 | status) + 1; 0 = empty
	groups [2 * q1Slots]Q1Group
	used   int
	spill  Q1Result // groups beyond q1Slots, nil until needed
}

// group returns the accumulator of (flag, status), claiming a table entry —
// or a spill entry once the table holds q1Slots groups — on first sight.
func (t *q1Table) group(flag, status byte) *Q1Group {
	key := (uint32(flag)<<8 | uint32(status)) + 1
	for i := (uint(flag)*31 + uint(status)) % (2 * q1Slots); ; i = (i + 1) % (2 * q1Slots) {
		switch t.keys[i] {
		case key:
			return &t.groups[i]
		case 0:
			if t.used < q1Slots {
				t.used++
				t.keys[i], t.groups[i] = key, Q1Group{Flag: flag, Status: status}
				return &t.groups[i]
			}
			if t.spill == nil {
				t.spill = make(Q1Result)
			}
			grp := t.spill[[2]byte{flag, status}]
			if grp == nil {
				grp = &Q1Group{Flag: flag, Status: status}
				t.spill[[2]byte{flag, status}] = grp
			}
			return grp
		}
	}
}

// result renders the accumulator as a Q1Result: the spill map if there is
// one, plus the table's groups in one allocation.
func (t *q1Table) result() Q1Result {
	res := t.spill
	if res == nil {
		res = make(Q1Result, t.used)
	}
	out := make([]Q1Group, 0, t.used)
	for i, k := range t.keys {
		if k != 0 {
			out = append(out, t.groups[i])
			g := &out[len(out)-1]
			res[[2]byte{g.Flag, g.Status}] = g
		}
	}
	return res
}

// Q1Kernel evaluates the SLOW query over one chunk's column vectors (every
// column at least len(dates) long), computing exactly Q1Chunk's result: the
// same per-row arithmetic, the same extraArith rounds per qualifying row
// feeding the same skip, the same (byte(flag), byte(status)) grouping — as
// one typed loop whose groups accumulate in a small table on the stack, not
// in a map probed per row. Sums are wrap-around int64 additions, so the
// fold order does not matter. It allocates only its result. Bounds past
// dateMax decide None, no column read; an All (a branch per row) is not built.
func Q1Kernel(dates, qty, price, disc, tax, flag, status []int64, dateMax int64, extraArith int, dateZ storage.Zone) (Q1Result, storage.Decided) {
	if dateZ.Decide(math.MinInt64, dateMax) == storage.None {
		return Q1Result{}, storage.None
	}
	n := len(dates)
	qty, price, disc, tax = qty[:n], price[:n], disc[:n], tax[:n]
	flag, status = flag[:n], status[:n]

	var groups q1Table
	for i, date := range dates {
		if date > dateMax {
			continue
		}
		q, p := qty[i], price[i]
		discPrice := p * (100 - disc[i]) / 100
		charge := discPrice * (100 + tax[i]) / 100
		// The paper's "more CPU-intensive Q1": extraArith rounds per
		// qualifying row, kept observable through the skip below.
		x := charge
		for r := 0; r < extraArith; r++ {
			x = x*31 + q
			x ^= x >> 7
		}
		if x == -1 {
			continue // practically never; keeps x live
		}
		grp := groups.group(byte(flag[i]), byte(status[i]))
		grp.Count++
		grp.SumQty += q
		grp.SumBase += p
		grp.SumDisc += discPrice
		grp.SumCharge += charge
	}
	return groups.result(), storage.Some
}

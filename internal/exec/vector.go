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

// Q6Kernel evaluates the FAST query over the first n rows of one chunk's
// column vectors (dates[i], disc[i], qty[i], price[i] are row i), given what
// the chunk's bounds decided of pred (Decide): on None it reads no column,
// on All not the dates, and a column it does not read may be nil; the ones
// it reads hold at least n rows. Given a decision that bounds holding for
// the chunk give, it computes exactly Q6Chunk's aggregate, wrap-around
// included, for any predicate.
//
// The two range conjuncts are one unsigned compare each: for lo ≤ hi,
// v ∈ [lo, hi) iff uint64(v-lo) < uint64(hi-lo), the subtraction wrapping
// the interval onto [0, width) whatever the signs. On a CPU with AVX2 the
// kernel runs as one branch-free pass four rows at a time (q6AVX2), the
// rows past the last multiple of four through the Go body, q6Sel, which is
// the portable path and the reference the AVX2 body is tested against. A
// race build always takes the Go body: the race detector does not see the
// assembly's reads of a shared frame.
func Q6Kernel(dates, disc, qty, price []int64, n int, pred Q6Predicate, decided storage.Decided) Q6Result {
	return q6Body(hasAVX2 && !raceBuild, dates, disc, qty, price, n, pred, decided)
}

// q6Body is Q6Kernel on the body avx2 chooses.
func q6Body(avx2 bool, dates, disc, qty, price []int64, n int, pred Q6Predicate, decided storage.Decided) Q6Result {
	if !avx2 || decided == storage.None {
		return q6Sel(dates, disc, qty, price, n, pred, decided)
	}
	// Resliced to n: a short column panics here rather than being read past.
	disc, qty, price = disc[:n], qty[:n], price[:n]
	all := decided == storage.All
	if !all {
		dates = dates[:n]
	}
	var res Q6Result
	res.Revenue, res.Rows = q6AVX2(dates, disc, qty, price, pred.DateLo, uint64(pred.DateHi)-uint64(pred.DateLo),
		pred.DiscLo, uint64(pred.DiscHi)-uint64(pred.DiscLo), pred.MaxQty, all)
	if m := n &^ 3; m < n {
		if !all {
			dates = dates[m:]
		}
		res.Add(q6Sel(dates, disc[m:], qty[m:], price[m:], n-m, pred, decided))
	}
	return res
}

// q6Sel is the Go body, vector at a time: the date conjunct runs first over
// the whole vector and writes the selection; on a chunk across an end of the
// date range (no other still runs it) many vectors qualify no row and touch
// neither disc, qty nor price.
func q6Sel(dates, disc, qty, price []int64, n int, pred Q6Predicate, decided storage.Decided) (res Q6Result) {
	if decided == storage.None {
		return res
	}
	dateLo, dateW := pred.DateLo, uint64(pred.DateHi)-uint64(pred.DateLo)
	discLo, discW := pred.DiscLo, uint64(pred.DiscHi)-uint64(pred.DiscLo)
	maxQty := pred.MaxQty

	// Offsets within the vector: 2 KiB of stack per call, not 4 — 512
	// streams run this concurrently on the resident-fanin workload.
	var sel [vecRows]uint16
	for lo := 0; lo < n; lo += vecRows {
		hi := min(lo+vecRows, n)
		var k int
		if decided == storage.All {
			k = selRangeLessEvery(&sel, disc[lo:hi], discLo, discW, qty[lo:hi], maxQty)
		} else if k = selRange(&sel, dates[lo:hi], dateLo, dateW); k > 0 {
			k = selRangeLess(&sel, k, disc[lo:hi], discLo, discW, qty[lo:hi], maxQty)
		}
		if k > 0 {
			res.Revenue += mulSumSel(sel[:k], price[lo:hi], disc[lo:hi])
			res.Rows += int64(k)
		}
	}
	return res
}

// The four vector primitives below are functions of their own, kept from
// being inlined back, so each compiles to a loop over a handful of
// registers: as loops inside q6Sel, among its dozen live slice headers,
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

// q1Block is Q1Kernel's block: the rows each pass runs over before the next
// pass starts. Its scratch — a selection, the group ordinals and four
// measure vectors — and the table with its sums make a 6.3 KiB frame; twice
// the block would pass 8 KiB.
const q1Block = 128

// The group ordinals: 0 to 2·q1Slots-1 are the table's entries; past them, a
// row the x == -1 skip drops and a row whose group is in the spill map. The
// sums are indexed by ordinal & q1Mask, which the compiler needs no bounds
// check for.
const (
	q1Skip  = 2 * q1Slots
	q1Spill = q1Skip + 1
	q1Mask  = 31
)

// q1Table is Q1Kernel's accumulator: an open-addressed table of 2×q1Slots
// keys on the stack, never more than half full, and the sums of each
// ordinal. A key is looked up at its home entry first — where every key of
// TPC-H's six lands, they do not collide — and probed for only past it.
type q1Table struct {
	keys  [2 * q1Slots]uint32 // q1Key of the entry's group; 0 = empty
	used  int
	sums  [q1Mask + 1]Q1Group // by ordinal; Flag and Status are set at the fold
	spill Q1Result            // groups beyond q1Slots, nil until needed
}

// q1Key is a row's group key: byte(flag) and byte(status) above four bits
// naming the key's home entry, flag ^ status<<1, which tell TPC-H's six
// keys apart. Never 0.
func q1Key(flag, status int64) uint32 {
	f, s := uint32(uint8(flag)), uint32(uint8(status))
	return 1<<20 | f<<12 | s<<4 | (f^s<<1)%(2*q1Slots)
}

// probe returns the ordinal of key when it is not at its home entry: the
// entry holding it, an empty one it claims, or — once the table holds
// q1Slots groups — q1Spill.
//
//go:noinline
func (t *q1Table) probe(key uint32) uint8 {
	for i := key % (2 * q1Slots); ; i = (i + 1) % (2 * q1Slots) {
		switch t.keys[i] {
		case key:
			return uint8(i)
		case 0:
			if t.used == q1Slots {
				return q1Spill
			}
			t.used++
			t.keys[i] = key
			return uint8(i)
		}
	}
}

// ordinal returns key's group ordinal: its home entry when the key is there,
// else what probe finds.
func (t *q1Table) ordinal(key uint32) uint8 {
	if g := key % (2 * q1Slots); t.keys[g] == key {
		return uint8(g)
	}
	return t.probe(key)
}

// ordinals writes each row's group ordinal into gid.
//
//go:noinline
func (t *q1Table) ordinals(gid []uint8, flag, status []int64) {
	gid, status = gid[:len(flag)], status[:len(flag)]
	for i, f := range flag {
		gid[i] = t.ordinal(q1Key(f, status[i]))
	}
}

// ordinalsBody is ordinals on the body avx2 chooses: the AVX2 body up to
// the first four-row step with a key away from its home entry, the Go body
// from there.
func (t *q1Table) ordinalsBody(avx2 bool, gid []uint8, flag, status []int64) {
	gid, status = gid[:len(flag)], status[:len(flag)]
	m := 0
	if avx2 {
		m = q1OrdinalsAVX2(&t.keys, gid, flag, status)
	}
	t.ordinals(gid[m:], flag[m:], status[m:])
}

// ordinalsSel is ordinals over the selected rows.
//
//go:noinline
func (t *q1Table) ordinalsSel(gid *[q1Block]uint8, sel []uint16, flag, status []int64) {
	for k, i := range sel {
		gid[k&(q1Block-1)] = t.ordinal(q1Key(flag[i], status[i]))
	}
}

// selAtMost writes the positions i of col (at most q1Block long) with
// col[i] <= max into sel, ascending, and returns how many.
//
//go:noinline
func selAtMost(sel *[q1Block]uint16, col []int64, max int64) int {
	k := 0
	for i, v := range col {
		sel[k&(q1Block-1)] = uint16(i)
		k += b2i(v <= max)
	}
	return k
}

// q1Gather copies the selected rows' quantity, price, discount and tax
// into q, p, d and tx.
//
//go:noinline
func q1Gather(q, p, d, tx *[q1Block]int64, sel []uint16, qty, price, disc, tax []int64) {
	for k, i := range sel {
		k &= q1Block - 1
		q[k], p[k], d[k], tx[k] = qty[i], price[i], disc[i], tax[i]
	}
}

// q1Arith writes each row's discounted price and charge into dp and ch. A
// row's discount and tax are read before its results are written, so disc
// and tax may be dp and ch: the work runs in place.
//
//go:noinline
func q1Arith(dp, ch, price, disc, tax []int64) {
	dp, ch, disc, tax = dp[:len(price)], ch[:len(price)], disc[:len(price)], tax[:len(price)]
	for i, p := range price {
		d := p * (100 - disc[i]) / 100
		dp[i] = d
		ch[i] = d * (100 + tax[i]) / 100
	}
}

// q1Rounds' round is x = x*q1Mul + q, then x ^= x >> q1Shift (arithmetic).
// q1Mul is one less than a power of two, so the AVX2 body, which has no
// 64 × 64 multiply, shifts and subtracts.
const (
	q1MulShift = 5
	q1Mul      = 1<<q1MulShift - 1
	q1Shift    = 7
)

// q1Rounds runs the extraArith rounds — the paper's "more CPU-intensive Q1"
// — of every row, in order, from its charge, moves a row whose result is -1
// to the skip ordinal (gid holds a byte per row), and returns the wrapping
// sum of the results, which only the tests read. Eight rows at a time are
// eight independent chains held in registers: a row's rounds are a serial
// multiply-shift-xor chain, which one row at a time leaves the core waiting
// on. The multiplier comes in as an argument: times a constant, the
// compiler shifts and subtracts, which needs a copy of each x, and spills
// the eight chains to the stack; times a register it is one IMUL.
//
//go:noinline
func q1Rounds(gid []uint8, ch, qty []int64, rounds int, mul int64) (sum int64) {
	gid, qty = gid[:len(ch)], qty[:len(ch)]
	i := 0
	for ; i+8 <= len(ch); i += 8 {
		c, q := (*[8]int64)(ch[i:]), (*[8]int64)(qty[i:])
		x0, x1, x2, x3, x4, x5, x6, x7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
		for r := rounds; r > 0; r-- {
			x0 = x0*mul + q[0]
			x0 ^= x0 >> q1Shift
			x1 = x1*mul + q[1]
			x1 ^= x1 >> q1Shift
			x2 = x2*mul + q[2]
			x2 ^= x2 >> q1Shift
			x3 = x3*mul + q[3]
			x3 ^= x3 >> q1Shift
			x4 = x4*mul + q[4]
			x4 ^= x4 >> q1Shift
			x5 = x5*mul + q[5]
			x5 ^= x5 >> q1Shift
			x6 = x6*mul + q[6]
			x6 ^= x6 >> q1Shift
			x7 = x7*mul + q[7]
			x7 ^= x7 >> q1Shift
		}
		sum += x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
		// Taken only when rounds is 0 and a charge is -1: a round's
		// x ^= x >> q1Shift clears the sign bit, so no round ends at -1.
		if x0 == -1 || x1 == -1 || x2 == -1 || x3 == -1 || x4 == -1 || x5 == -1 || x6 == -1 || x7 == -1 {
			for j, x := range [8]int64{x0, x1, x2, x3, x4, x5, x6, x7} {
				if x == -1 {
					gid[i+j] = q1Skip
				}
			}
		}
	}
	for ; i < len(ch); i++ {
		x := ch[i]
		for r := rounds; r > 0; r-- {
			x = x*mul + qty[i]
			x ^= x >> q1Shift
		}
		sum += x
		if x == -1 {
			gid[i] = q1Skip
		}
	}
	return sum
}

// q1ArithRoundsBody is q1Arith and then q1Rounds, on the body avx2 chooses,
// over the rows of price, in place as q1Arith may be; it returns q1Rounds'
// sum. The AVX2 body runs the whole sixteen-row steps up to the first with
// a row outside the range it is exact over, and the Go bodies the rest.
// Where the AVX2 body runs no result is -1, so the skip ordinal is only
// ever set by q1Rounds.
func q1ArithRoundsBody(avx2 bool, gid []uint8, dp, ch, price, disc, tax, qty []int64, rounds int) (sum int64) {
	// Resliced to the rows: a short vector panics here rather than being
	// read past.
	n := len(price)
	gid, dp, ch, disc, tax, qty = gid[:n], dp[:n], ch[:n], disc[:n], tax[:n], qty[:n]
	m := 0
	if avx2 {
		sum, m = q1ArithRoundsAVX2(dp, ch, price, disc, tax, qty, rounds)
	}
	q1Arith(dp[m:], ch[m:], price[m:], disc[m:], tax[m:])
	return sum + q1Rounds(gid[m:], ch[m:], qty[m:], rounds, q1Mul)
}

// sum adds each row to its ordinal's sums: the count and the four measures.
// One loop for all five, not one per measure: the row's ordinal is read once
// and its five sums are adjacent.
//
//go:noinline
func (t *q1Table) sum(gid []uint8, qty, price, dp, ch []int64) {
	qty, price, dp, ch = qty[:len(gid)], price[:len(gid)], dp[:len(gid)], ch[:len(gid)]
	for i, g := range gid {
		s := &t.sums[g&q1Mask]
		s.Count++
		s.SumQty += qty[i]
		s.SumBase += price[i]
		s.SumDisc += dp[i]
		s.SumCharge += ch[i]
	}
}

// sumBody is sum on the body avx2 chooses: the AVX2 body adds the whole
// four-row steps, the Go body the rest.
func (t *q1Table) sumBody(avx2 bool, gid []uint8, qty, price, dp, ch []int64) {
	qty, price, dp, ch = qty[:len(gid)], price[:len(gid)], dp[:len(gid)], ch[:len(gid)]
	m := 0
	if avx2 {
		m = len(gid) &^ 3
		q1SumAVX2(&t.sums, gid, qty, price, dp, ch)
	}
	t.sum(gid[m:], qty[m:], price[m:], dp[m:], ch[m:])
}

// spillRows adds the rows of ordinal q1Spill to their groups in the spill
// map; row k of the block is row sel[k] of flag and status, or row k when
// sel is nil.
func (t *q1Table) spillRows(gid []uint8, sel []uint16, flag, status, qty, price, dp, ch []int64) {
	for k, g := range gid {
		if g != q1Spill {
			continue
		}
		if t.spill == nil {
			t.spill = make(Q1Result)
		}
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		key := [2]byte{byte(flag[i]), byte(status[i])}
		grp := t.spill[key]
		if grp == nil {
			grp = &Q1Group{Flag: key[0], Status: key[1]}
			t.spill[key] = grp
		}
		grp.Count++
		grp.SumQty += qty[k]
		grp.SumBase += price[k]
		grp.SumDisc += dp[k]
		grp.SumCharge += ch[k]
	}
}

// result renders the accumulator as a Q1Result: the spill map if there is
// one, plus the table's groups in one allocation. An entry whose every row
// the skip dropped is no group.
func (t *q1Table) result() Q1Result {
	res := t.spill
	if res == nil {
		res = make(Q1Result, t.used)
	}
	out := make([]Q1Group, 0, t.used)
	for i, k := range t.keys {
		if k == 0 || t.sums[i].Count == 0 {
			continue
		}
		out = append(out, t.sums[i])
		g := &out[len(out)-1]
		g.Flag, g.Status = byte(k>>12), byte(k>>4)
		res[[2]byte{g.Flag, g.Status}] = g
	}
	return res
}

// Q1Decide asks a chunk's date bounds what they already answer of Q1 at
// dateMax: None when every date is past it, All when none is, Some otherwise.
func Q1Decide(dateZ storage.Zone, dateMax int64) storage.Decided {
	return dateZ.Decide(math.MinInt64, dateMax)
}

// Q1Kernel evaluates the SLOW query over the first n rows of one chunk's
// column vectors, given what the chunk's date bounds decided (Q1Decide): on
// None it reads no column, on All not the dates, and a column it does not
// read may be nil; the ones it reads hold at least n rows. It computes
// exactly Q1Chunk's result: the same per-row arithmetic, the same extraArith
// rounds per qualifying row feeding the same skip, the same (byte(flag),
// byte(status)) grouping. Sums are wrap-around int64 additions, so the fold
// order does not matter. It allocates only its result.
//
// A block of q1Block rows at a time, pass by pass: on a Some chunk the date
// test writes a selection and the selected rows' measures are gathered
// (the discount and tax into the vectors the price arithmetic then
// overwrites); then each row's group ordinal (its table entry), the price
// arithmetic and the rounds, and one loop adding each row's count and
// measures into its ordinal's sums, which fold into Q1Groups once per call.
// On a CPU with AVX2 the price arithmetic and the rounds are one pass,
// sixteen rows a step (q1ArithRoundsAVX2), over the steps whose prices,
// discounts and taxes lie in the range that pass is exact over — the
// generator's always do — and the ordinals (of a block with every row
// selected, up to the first key away from its home entry) and the sums are
// two more, four rows a step (q1OrdinalsAVX2, q1SumAVX2). The rest runs through the
// Go bodies — ordinals, q1Arith, q1Rounds and sum — which are the portable
// path and the reference; a race build takes the Go bodies, as Q6Kernel
// does. Neither body skips a round: every qualifying
// row pays them all.
func Q1Kernel(dates, qty, price, disc, tax, flag, status []int64, n int, dateMax int64, extraArith int, decided storage.Decided) Q1Result {
	return q1Body(hasAVX2 && !raceBuild, dates, qty, price, disc, tax, flag, status, n, dateMax, extraArith, decided)
}

// q1Body is Q1Kernel on the body avx2 chooses.
func q1Body(avx2 bool, dates, qty, price, disc, tax, flag, status []int64, n int, dateMax int64, extraArith int, decided storage.Decided) Q1Result {
	if decided == storage.None {
		return Q1Result{}
	}
	qty, price, disc, tax = qty[:n], price[:n], disc[:n], tax[:n]
	flag, status = flag[:n], status[:n]

	var (
		t            q1Table
		sel          [q1Block]uint16
		gid          [q1Block]uint8
		q, p, dp, ch [q1Block]int64
	)
	for lo := 0; lo < n; lo += q1Block {
		hi := min(lo+q1Block, n)
		var rows []uint16 // the block's selected rows; nil: all of them
		if decided == storage.Some {
			k := selAtMost(&sel, dates[lo:hi], dateMax)
			if k == 0 {
				continue
			}
			if k < hi-lo {
				rows = sel[:k]
			}
		}
		bq, bp, bd, bt := qty[lo:hi], price[lo:hi], disc[lo:hi], tax[lo:hi]
		if rows == nil {
			t.ordinalsBody(avx2, gid[:hi-lo], flag[lo:hi], status[lo:hi])
		} else {
			k := len(rows)
			q1Gather(&q, &p, &dp, &ch, rows, bq, bp, bd, bt)
			t.ordinalsSel(&gid, rows, flag[lo:hi], status[lo:hi])
			bq, bp, bd, bt = q[:k], p[:k], dp[:k], ch[:k]
		}
		m := len(bq)
		q1ArithRoundsBody(avx2, gid[:m], dp[:m], ch[:m], bp, bd, bt, bq, extraArith)
		t.sumBody(avx2, gid[:m], bq, bp, dp[:m], ch[:m])
		if t.used == q1Slots { // only a full table spills
			t.spillRows(gid[:m], rows, flag[lo:hi], status[lo:hi], bq, bp, dp[:m], ch[:m])
		}
	}
	return t.result()
}

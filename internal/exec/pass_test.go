package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"coopscan/internal/storage"
)

// The kernels' AVX2 passes in one table, checked by one runner. An entry
// gives the pass's step, its kernel's block and its regimes, which draw
// cases; a case binds its rows in functions that print what they compute:
// the assembly alone, the body through the kernel's *Body(avx2, …) seam,
// an independent reference, and the rows the assembly refuses, before the
// first of which it must run every whole step. Each regime asserts its
// reach, the whole steps its cases make the assembly run, or fails.
var avx2Passes = map[string]pass{
	"q6AVX2": {4, vecRows, []regime{{"some", 1500, 4, q6Cases(storage.Some)}, {"all, nil dates", 1500, 4, q6Cases(storage.All)}}},
	"q1ArithRoundsAVX2": {16, q1Block, []regime{{"edge", 0, 52, roundsCases("edge")}, {"in range", 1000, 52, roundsCases("in range")},
		{"one out", 400, 52, roundsCases("one out")}, {"planted", 400, 52, roundsCases("planted")}}},
	"q1OrdinalsAVX2": {4, q1Block, []regime{{"the table's keys", 200, 12, ordinalsCases(false)}, {"mixed", 15, 12, ordinalsCases(true)}}},
	"q1SumAVX2":      {4, q1Block, []regime{{"every ordinal, edge-valued measures", 200, 4, sumCases}}},
}

func TestQ6KernelRaggedColumns(t *testing.T)    { checkPass(t, "q6AVX2") }
func TestQ1ArithRoundsBodiesAgree(t *testing.T) { checkPass(t, "q1ArithRoundsAVX2") }
func TestQ1OrdinalsBodiesAgree(t *testing.T)    { checkPass(t, "q1OrdinalsAVX2") }
func TestQ1SumBodiesAgree(t *testing.T)         { checkPass(t, "q1SumAVX2") }

type pass struct {
	step, block int // rows per step of the assembly; the kernel's block
	regimes     []regime
}

type regime struct {
	name         string
	reach, cases int                                     // whole steps the assembly must run; cases per length
	draw         func(rng *rand.Rand, n, i int) passCase // case i of n rows
}

type passCase struct {
	asm     func() (rows int, out string)
	body    func(avx2 bool) string
	ref     func(rows int) string // over the first rows
	refuses func(row int) bool    // nil: the assembly takes every row
}

func checkPass(t *testing.T, name string) {
	p, ok := avx2Passes[name]
	if !ok {
		t.Fatalf("no pass %s in the table", name)
	}
	bodies, rng := avx2Bodies(t), rand.New(rand.NewSource(41))
	lengths := []int{p.block - 1, p.block, p.block + 1} // and no step up to two and a row
	for n := 0; n <= 2*p.step+1; n++ {
		lengths = append(lengths, n)
	}
	for _, r := range p.regimes {
		steps := 0
		for _, n := range lengths {
			for i := range r.cases {
				c := r.draw(rng, n, i)
				want := c.ref(n)
				for _, avx2 := range bodies {
					if got := c.body(avx2); got != want {
						t.Fatalf("%s, n=%d, case %d: %s body %v, reference %v", r.name, n, i, bodyName(avx2), got, want)
					}
				}
				if !hasAVX2 {
					continue
				}
				m := 0 // the rows of the contract
				for m < n && (c.refuses == nil || !c.refuses(m)) {
					m++
				}
				if rows, got := c.asm(); rows != m-m%p.step || got != c.ref(rows) {
					t.Fatalf("%s, n=%d, case %d: the assembly ran %d rows (the contract: %d) to %v, reference %v", r.name, n, i, rows, m-m%p.step, got, c.ref(min(rows, n)))
				}
				steps += m / p.step
			}
		}
		if hasAVX2 && steps < r.reach {
			t.Errorf("%s: the assembly ran %d whole steps, the reach is %d: the cases no longer reach it", r.name, steps, r.reach)
		}
	}
}

func edgeCol(rng *rand.Rand, n int) []int64 {
	col := make([]int64, n)
	for i := range col {
		col[i] = edgeInt64(rng)
	}
	return col
}

// q6Cases draws n rows of Q6's columns, one element into their arrays: each
// conjunct's around its ends (the dates inside theirs on All, where the
// bodies get nil dates) and prices anywhere, so the product wraps. The
// element before and the seven after pass every conjunct with a large
// price, so a read past either end moves the sum.
func q6Cases(decided storage.Decided) func(*rand.Rand, int, int) passCase {
	p := Q6Predicate{DateLo: 100, DateHi: 200, DiscLo: 5, DiscHi: 7, MaxQty: 24}
	lo, hi := [3]int64{50, 3, 20}, [3]int64{250, 9, 28}
	if decided == storage.All {
		lo[0], hi[0] = p.DateLo, p.DateHi-1
	}
	return func(rng *rand.Rand, n, _ int) passCase {
		var c [4][]int64
		for j, poison := range [4]int64{p.DateLo, p.DiscLo, p.MaxQty - 1, 1 << 40} {
			rows := edgeCol(rng, n)
			for i := 0; i < n && j < 3; i++ {
				rows[i] = lo[j] + rng.Int63n(hi[j]-lo[j]+1)
			}
			c[j] = slices.Concat([]int64{poison}, rows, slices.Repeat([]int64{poison}, 7))[1:]
		}
		dates := [][]int64{c[0], nil}[b2i(decided == storage.All)]
		return passCase{
			asm: func() (int, string) {
				rev, rows := q6AVX2(dates[:min(n, len(dates))], c[1][:n], c[2][:n], c[3][:n], p.DateLo,
					uint64(p.DateHi)-uint64(p.DateLo), p.DiscLo, uint64(p.DiscHi)-uint64(p.DiscLo), p.MaxQty, dates == nil)
				return n &^ 3, fmt.Sprint(Q6Result{rev, rows})
			},
			body: func(avx2 bool) string { return fmt.Sprint(q6Body(avx2, dates, c[1], c[2], c[3], n, p, decided)) },
			ref:  func(rows int) string { return fmt.Sprint(q6Ref(c[0][:rows], c[1][:rows], c[2][:rows], c[3][:rows], p)) },
		}
	}
}

// roundsCases draws n rows of Q1's price arithmetic and i/2 rounds (0 to
// 25), run apart or, for odd i, in place in dp and ch. Quantities are at
// int64's edges, and prices, discounts and taxes as the regime says: at
// int64's edges, where the assembly runs no step; in its range; in it but
// for one row; or in it with a charge of -1 planted at the first row, a
// middle one or the last at rounds 0, the one count a result can be -1 at.
func roundsCases(regime string) func(*rand.Rand, int, int) passCase {
	return func(rng *rand.Rand, n, c int) passCase {
		price, disc, tax, qty, rounds := edgeCol(rng, n), edgeCol(rng, n), edgeCol(rng, n), edgeCol(rng, n), c/2
		for i := 0; i < n && regime != "edge"; i++ {
			price[i], disc[i], tax[i] = q1InRange(rng)
		}
		if i := rng.Intn(n + 1); regime == "one out" && i < n {
			price[i], disc[i], tax[i] = q1OutOfRange(rng, price[i], disc[i], tax[i])
		} else if regime == "planted" && n > 0 {
			i = []int{0, n / 2, n - 1}[c%3]
			price[i], disc[i], tax[i], rounds = -1, -100, -50, 0
		}
		bufs := func() (gid []uint8, dp, ch, d, tx []int64) {
			dp, ch = slices.Clone(disc), slices.Clone(tax)
			return make([]uint8, n), dp, ch, [][]int64{disc, dp}[c%2], [][]int64{tax, ch}[c%2]
		}
		return passCase{
			asm: func() (int, string) {
				_, dp, ch, d, tx := bufs()
				sum, rows := q1ArithRoundsAVX2(dp, ch, price, d, tx, qty, rounds)
				return rows, fmt.Sprint(dp[:rows], ch[:rows], sum, []int(nil))
			},
			body: func(avx2 bool) string {
				gid, dp, ch, d, tx := bufs()
				sum, skip := q1ArithRoundsBody(avx2, gid, dp, ch, price, d, tx, qty, rounds), []int(nil)
				for i, g := range gid {
					if g == q1Skip {
						skip = append(skip, i)
					}
				}
				return fmt.Sprint(dp, ch, sum, skip)
			},
			ref: func(rows int) string { return fmt.Sprint(q1ArithRoundsRef(price[:rows], disc, tax, qty, rounds)) },
			refuses: func(i int) bool { // outside the range the pass is exact over
				return price[i] < 0 || price[i] >= 1<<31 || disc[i] < -27 || disc[i] > 100 || tax[i] < -100 || tax[i] > 155
			},
		}
	}
}

// ordinalsCases draws n rows of flag and status words over a table that is
// empty, holds TPC-H's six keys at home entries in both halves, or holds
// keys colliding on their home entries, three displaced. Rows take the
// table's own keys (TPC-H's for the empty one) under arbitrary high bits;
// mixed, one row in eight takes other low bytes.
func ordinalsCases(mixed bool) func(*rand.Rand, int, int) passCase {
	tpchKeys := [][2]int64{{'A', 'F'}, {'A', 'O'}, {'N', 'F'}, {'N', 'O'}, {'R', 'F'}, {'R', 'O'}}
	colliding := [][2]int64{{0, 0}, {2, 1}, {1, 0}, {3, 1}} // homes 0, 0, 1, 1
	return func(rng *rand.Rand, n, c int) passCase {
		var base q1Table
		keys, flag, status := [][][2]int64{nil, tpchKeys, colliding}[c%3], make([]int64, n), make([]int64, n)
		for _, key := range keys {
			base.ordinal(q1Key(key[0], key[1]))
		}
		pool := [][][2]int64{keys, tpchKeys}[b2i(keys == nil)]
		for i := range n {
			key := pool[rng.Intn(len(pool))]
			if mixed && rng.Intn(8) == 0 {
				key = [2]int64{int64(rng.Intn(256)), int64(rng.Intn(256))}
			}
			flag[i], status[i] = int64(rng.Uint64())&^0xff|key[0], int64(rng.Uint64())&^0xff|key[1]
		}
		return passCase{
			asm: func() (int, string) {
				t, gid := base, make([]uint8, n)
				rows := q1OrdinalsAVX2(&t.keys, gid, flag, status)
				return rows, fmt.Sprint(gid[:rows], t.keys)
			},
			body: func(avx2 bool) string {
				t, gid := base, make([]uint8, n)
				t.ordinalsBody(avx2, gid, flag, status)
				return fmt.Sprint(gid, t.keys)
			},
			// The entry with the row's key, probed for from its home, or the
			// empty one met first, claimed if q1Slots are not held, or q1Spill.
			ref: func(rows int) string {
				keys, used, gid := base.keys, base.used, make([]uint8, rows)
				for i := range gid {
					key, e := q1Key(flag[i], status[i]), uint32(0)
					for e = key % (2 * q1Slots); keys[e] != key && keys[e] != 0; e = (e + 1) % (2 * q1Slots) {
					}
					if gid[i] = uint8(e); keys[e] == 0 && used == q1Slots {
						gid[i] = q1Spill
					} else if keys[e] == 0 {
						keys[e], used = key, used+1
					}
				}
				return fmt.Sprint(gid, keys)
			},
			refuses: func(i int) bool { // a key away from its home entry
				key := q1Key(flag[i], status[i])
				return base.keys[key%(2*q1Slots)] != key
			},
		}
	}
}

// sumCases draws n rows of any ordinal, the mask's bits and those above
// them, and edge-valued measures: qty, price, dp, ch.
func sumCases(rng *rand.Rand, n, _ int) passCase {
	gid, m := make([]uint8, n), [4][]int64{edgeCol(rng, n), edgeCol(rng, n), edgeCol(rng, n), edgeCol(rng, n)}
	for i := range n {
		gid[i] = uint8(rng.Intn(256))
	}
	return passCase{
		asm: func() (int, string) {
			var t q1Table
			q1SumAVX2(&t.sums, gid, m[0], m[1], m[2], m[3])
			return n &^ 3, fmt.Sprint(t.sums)
		},
		body: func(avx2 bool) string {
			var t q1Table
			t.sumBody(avx2, gid, m[0], m[1], m[2], m[3])
			return fmt.Sprint(t.sums)
		},
		ref: func(rows int) string { // row by row
			var sums [q1Mask + 1]Q1Group
			for i, g := range gid[:rows] {
				s := &sums[g%32]
				s.Count, s.SumQty, s.SumBase, s.SumDisc, s.SumCharge = s.Count+1, s.SumQty+m[0][i], s.SumBase+m[1][i], s.SumDisc+m[2][i], s.SumCharge+m[3][i]
			}
			return fmt.Sprint(sums)
		},
	}
}

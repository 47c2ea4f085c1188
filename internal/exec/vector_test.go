package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// genCols materialises rows [start, start+n) of the given generator columns.
func genCols(g *tpch.Generator, start, n int64, cols ...int) [][]int64 {
	out := make([][]int64, len(cols))
	for i, c := range cols {
		out[i] = make([]int64, n)
		g.Column(c, start, out[i])
	}
	return out
}

// q6Vectorized and q1Vectorized run the live kernels over generated rows, so
// the tests below pin them against the scalar reference over the same rows.
func q6Vectorized(g *tpch.Generator, start, n int64, pred Q6Predicate, avx2 bool) Q6Result {
	c := genCols(g, start, n, tpch.ColShipDate, tpch.ColDiscount, tpch.ColQuantity, tpch.ColExtendedPrice)
	return q6Kernel(c, pred, avx2)
}

func q1Vectorized(g *tpch.Generator, start, n int64, dateMax int64, extraArith int, avx2 bool) Q1Result {
	c := genCols(g, start, n, tpch.ColShipDate, tpch.ColQuantity, tpch.ColExtendedPrice,
		tpch.ColDiscount, tpch.ColTax, tpch.ColReturnFlag, tpch.ColLineStatus)
	return q1Kernel(c, dateMax, extraArith, avx2)
}

// q6Kernel and q1Kernel run the kernels told nothing of the chunk's bounds:
// every pass runs, as on a chunk that carries none. (decided_test.go holds
// the kernels given bounds against these.)
func q6Kernel(c [][]int64, pred Q6Predicate, avx2 bool) Q6Result {
	res, _ := q6Bounded(avx2, [4][]int64(c), pred, storage.AnyZone, storage.AnyZone, storage.AnyZone)
	return res
}

// avx2Bodies returns the kernels' bodies this CPU runs, for a test to check
// each of: the Go body (false) and, unless CPUID reports no AVX2 — which it
// logs — the AVX2 one (true).
func avx2Bodies(tb testing.TB) []bool {
	if !hasAVX2 {
		tb.Log("CPUID reports no AVX2: the kernels' AVX2 bodies are not checked")
		return []bool{false}
	}
	return []bool{false, true}
}

func bodyName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

func q1Kernel(c [][]int64, dateMax int64, extraArith int, avx2 bool) Q1Result {
	res, _ := q1Bounded(avx2, [7][]int64(c), dateMax, extraArith, storage.AnyZone)
	return res
}

func sameQ1(t *testing.T, got, want Q1Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("groups %d vs %d", len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if g == nil || *g != *w {
			t.Errorf("group %v: %+v vs %+v", k, g, w)
		}
	}
}

func TestQ6VectorizedMatchesScalar(t *testing.T) {
	g := tpch.NewGenerator(tpch.LineitemTable(0.01), 21)
	pred := DefaultQ6()
	a := Q6Chunk(g, 0, 30000, pred)
	for _, avx2 := range avx2Bodies(t) {
		if b := q6Vectorized(g, 0, 30000, pred, avx2); a != b {
			t.Errorf("scalar %+v != vectorized %+v (%s body)", a, b, bodyName(avx2))
		}
	}
	if a.Rows == 0 {
		t.Error("empty result")
	}
}

func TestQuickQ6VectorizedEquivalence(t *testing.T) {
	g := tpch.NewGenerator(tpch.LineitemTable(0.01), 22)
	rows := g.Table().Rows
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		start := rng.Int63n(rows - 3000)
		n := 1 + rng.Int63n(3000)
		pred := Q6Predicate{
			DateLo: rng.Int63n(tpch.DateMax),
			DiscLo: rng.Int63n(8),
			MaxQty: 1 + rng.Int63n(50),
		}
		pred.DateHi = pred.DateLo + rng.Int63n(tpch.DateMax-pred.DateLo+1)
		pred.DiscHi = pred.DiscLo + rng.Int63n(4)
		want := Q6Chunk(g, start, n, pred)
		for _, avx2 := range avx2Bodies(t) {
			if q6Vectorized(g, start, n, pred, avx2) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQ1VectorizedMatchesScalar(t *testing.T) {
	g := tpch.NewGenerator(tpch.LineitemTable(0.01), 31)
	want := Q1Chunk(g, 0, 40000, tpch.DateMax-90, 0)
	for _, extra := range []int{0, 8, 25} {
		for _, avx2 := range avx2Bodies(t) {
			sameQ1(t, q1Vectorized(g, 0, 40000, tpch.DateMax-90, extra, avx2), want)
		}
		sameQ1(t, Q1Chunk(g, 0, 40000, tpch.DateMax-90, extra), want)
	}
}

// q6Ref is the Q6 predicate spelled the obvious way over column slices: the
// reference for synthetic columns the generator cannot produce.
func q6Ref(dates, disc, qty, price []int64, pred Q6Predicate) Q6Result {
	var res Q6Result
	for i := range dates {
		if dates[i] >= pred.DateLo && dates[i] < pred.DateHi &&
			disc[i] >= pred.DiscLo && disc[i] <= pred.DiscHi &&
			qty[i] < pred.MaxQty {
			res.Revenue += price[i] * disc[i]
			res.Rows++
		}
	}
	return res
}

// edgeInt64 draws from the values where a folded range compare could go
// wrong: both ends of the int64 range, zero, their neighbours — and, half
// the time, anything at all.
func edgeInt64(rng *rand.Rand) int64 {
	edges := [...]int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	if rng.Intn(2) == 0 {
		return edges[rng.Intn(len(edges))]
	}
	return int64(rng.Uint64())
}

// synthQ6 builds n rows of Q6 columns and a predicate from seed. Values
// span the full int64 range; the predicate's bounds are drawn independently,
// so empty (hi == lo), inverted (hi < lo) and extreme ranges all occur, and
// a third of the rows are planted on a bound so they decide something.
func synthQ6(seed int64, n int) (cols [4][]int64, pred Q6Predicate) {
	rng := rand.New(rand.NewSource(seed))
	pred = Q6Predicate{
		DateLo: edgeInt64(rng), DateHi: edgeInt64(rng),
		DiscLo: edgeInt64(rng), DiscHi: edgeInt64(rng),
		MaxQty: edgeInt64(rng),
	}
	bounds := [...]int64{pred.DateLo, pred.DateHi, pred.DiscLo, pred.DiscHi, pred.MaxQty}
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			switch rng.Intn(3) {
			case 0:
				cols[c][i] = bounds[rng.Intn(len(bounds))] + int64(rng.Intn(3)) - 1
			default:
				cols[c][i] = edgeInt64(rng)
			}
		}
	}
	return cols, pred
}

// kernelRowCounts are the vector-boundary cases: nothing, one row, one short
// of a vector, exactly one, one over, and several vectors with a short tail.
var kernelRowCounts = []int{0, 1, vecRows - 1, vecRows, vecRows + 1, 3*vecRows + 77}

// stepRowCounts are the counts from one to nine: the AVX2 body's four-row
// steps with each tail, and none.
var stepRowCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}

func TestQuickQ6KernelMatchesReference(t *testing.T) {
	hits := 0
	f := func(seed int64) bool {
		n := kernelRowCounts[int(uint64(seed)%uint64(len(kernelRowCounts)))]
		c, pred := synthQ6(seed, n)
		want := q6Ref(c[0], c[1], c[2], c[3], pred)
		hits += b2i(want.Rows > 0)
		for _, avx2 := range avx2Bodies(t) {
			if q6Kernel(c[:], pred, avx2) != want {
				t.Logf("%s body differs from the reference", bodyName(avx2))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
	if hits < 50 {
		t.Errorf("only %d of the random cases qualified a row: the generator no longer exercises the kernel", hits)
	}
	// The named edge predicates, on every row count: full range, empty,
	// inverted, and ranges ending at either end of int64.
	preds := []Q6Predicate{
		{DateLo: math.MinInt64, DateHi: math.MaxInt64, DiscLo: math.MinInt64, DiscHi: math.MaxInt64, MaxQty: math.MaxInt64},
		{DateLo: 5, DateHi: 5, DiscLo: math.MinInt64, DiscHi: math.MaxInt64, MaxQty: math.MaxInt64},
		{DateLo: 7, DateHi: -7, DiscLo: math.MinInt64, DiscHi: math.MaxInt64, MaxQty: math.MaxInt64},
		{DateLo: math.MinInt64, DateHi: math.MaxInt64, DiscLo: 3, DiscHi: 2, MaxQty: math.MaxInt64},
		{DateLo: math.MaxInt64, DateHi: math.MinInt64, DiscLo: math.MaxInt64, DiscHi: math.MinInt64, MaxQty: 0},
		{DateLo: math.MinInt64, DateHi: math.MinInt64 + 2, DiscLo: math.MinInt64, DiscHi: math.MinInt64 + 1, MaxQty: math.MinInt64 + 1},
		{DateLo: math.MaxInt64 - 1, DateHi: math.MaxInt64, DiscLo: math.MaxInt64, DiscHi: math.MaxInt64, MaxQty: math.MinInt64},
		{DateLo: -1, DateHi: 1, DiscLo: -1, DiscHi: 0, MaxQty: 1},
	}
	for _, n := range slices.Concat(kernelRowCounts, stepRowCounts) {
		c, _ := synthQ6(int64(n)+1, n)
		for _, pred := range preds {
			want := q6Ref(c[0], c[1], c[2], c[3], pred)
			for _, avx2 := range avx2Bodies(t) {
				if got := q6Kernel(c[:], pred, avx2); got != want {
					t.Errorf("%s body, n=%d pred=%+v: kernel %+v, reference %+v", bodyName(avx2), n, pred, got, want)
				}
			}
		}
	}
}

func FuzzQ6Kernel(f *testing.F) {
	for i, n := range slices.Concat(kernelRowCounts, stepRowCounts) {
		_, p := synthQ6(int64(i), 0)
		f.Add(int64(i), uint16(n), p.DateLo, p.DateHi, p.DiscLo, p.DiscHi, p.MaxQty)
	}
	f.Add(int64(9), uint16(vecRows), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add(int64(10), uint16(vecRows+1), int64(4), int64(4), int64(1), int64(0), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dateLo, dateHi, discLo, discHi, maxQty int64) {
		c, _ := synthQ6(seed, int(n)%(4*vecRows))
		pred := Q6Predicate{DateLo: dateLo, DateHi: dateHi, DiscLo: discLo, DiscHi: discHi, MaxQty: maxQty}
		// Plant the fuzzed bounds in the data so they are exercised.
		rng := rand.New(rand.NewSource(seed))
		for _, col := range c {
			for _, b := range []int64{dateLo, dateHi, discLo, discHi, maxQty} {
				if len(col) > 0 {
					col[rng.Intn(len(col))] = b
				}
			}
		}
		want := q6Ref(c[0], c[1], c[2], c[3], pred)
		for _, avx2 := range avx2Bodies(t) {
			if got := q6Kernel(c[:], pred, avx2); got != want {
				t.Fatalf("%s body, pred=%+v n=%d: kernel %+v, reference %+v", bodyName(avx2), pred, len(c[0]), got, want)
			}
		}
	})
}

// TestQ6KernelRaggedColumns holds both bodies to the reference on the shapes
// the AVX2 body's four-row step makes new: every row count from one to nine
// and around a vector; columns starting one element into their arrays, so
// no load is aligned; columns longer than n whose rows past n — and the
// element before each column's start — pass every conjunct with a large
// price, so a read past either end moves the sum; and, on an All decision,
// nil dates.
func TestQ6KernelRaggedColumns(t *testing.T) {
	pred := Q6Predicate{DateLo: 100, DateHi: 200, DiscLo: 5, DiscHi: 7, MaxQty: 24}
	poison := [4]int64{pred.DateLo, pred.DiscLo, pred.MaxQty - 1, 1 << 40}
	// Per column, the values of the first n rows: around each conjunct's
	// ends, and prices anywhere, so the product wraps.
	windows := [3][2]int64{{50, 250}, {3, 9}, {20, 28}}
	const past = 7
	rng := rand.New(rand.NewSource(6))
	for _, n := range slices.Concat(stepRowCounts, []int{vecRows - 1, vecRows, vecRows + 1, vecRows + 6}) {
		for _, decided := range []storage.Decided{storage.Some, storage.All} {
			var c [4][]int64
			for j := range c {
				arr := make([]int64, 1+n+past)
				for i := range arr {
					arr[i] = poison[j]
				}
				c[j] = arr[1:]
				for i := range c[j][:n] {
					if j < 3 {
						c[j][i] = windows[j][0] + rng.Int63n(windows[j][1]-windows[j][0]+1)
					} else {
						c[j][i] = edgeInt64(rng)
					}
				}
			}
			dates := c[0]
			if decided == storage.All {
				for i := range c[0][:n] {
					c[0][i] = pred.DateLo + rng.Int63n(pred.DateHi-pred.DateLo)
				}
				dates = nil
			}
			want := q6Ref(c[0][:n], c[1][:n], c[2][:n], c[3][:n], pred)
			for _, avx2 := range avx2Bodies(t) {
				if got := q6Body(avx2, dates, c[1], c[2], c[3], n, pred, decided); got != want {
					t.Errorf("%s body, n=%d decided %d: kernel %+v, reference %+v", bodyName(avx2), n, decided, got, want)
				}
			}
		}
	}
}

// TestQ6KernelShortColumnPanics: a column the decision reads that holds
// fewer than n rows is a bug in the caller, and each body panics on it
// rather than reading past the column's end.
func TestQ6KernelShortColumnPanics(t *testing.T) {
	pred := Q6Predicate{DateLo: 0, DateHi: 10, DiscLo: 0, DiscHi: 10, MaxQty: 10}
	const n = 8
	for _, avx2 := range avx2Bodies(t) {
		for short := range 4 {
			for _, decided := range []storage.Decided{storage.Some, storage.All} {
				if short == 0 && decided == storage.All {
					continue // the dates are not read
				}
				var c [4][]int64
				for j := range c {
					c[j] = make([]int64, n)
				}
				c[short] = c[short][: n-1 : n-1]
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s body, column %d one row short, decided %d: no panic", bodyName(avx2), short, decided)
						}
					}()
					q6Body(avx2, c[0], c[1], c[2], c[3], n, pred, decided)
				}()
			}
		}
	}
}

// q1Ref is Q1Chunk's loop over column slices: the map-per-row reference for
// chunks the generator cannot produce.
func q1Ref(dates, qty, price, disc, tax, flag, status []int64, dateMax int64, extraArith int) Q1Result {
	res := make(Q1Result)
	for i := range dates {
		if dates[i] > dateMax {
			continue
		}
		discPrice := price[i] * (100 - disc[i]) / 100
		charge := discPrice * (100 + tax[i]) / 100
		x := charge
		for r := 0; r < extraArith; r++ {
			x = x*31 + qty[i]
			x ^= x >> 7
		}
		if x == -1 {
			continue
		}
		k := [2]byte{byte(flag[i]), byte(status[i])}
		grp, ok := res[k]
		if !ok {
			grp = &Q1Group{Flag: k[0], Status: k[1]}
			res[k] = grp
		}
		grp.Count++
		grp.SumQty += qty[i]
		grp.SumBase += price[i]
		grp.SumDisc += discPrice
		grp.SumCharge += charge
	}
	return res
}

// TestQ1KernelGroupFallback folds chunks carrying far more distinct and
// arbitrary (flag, status) pairs than the fixed table holds — values whose
// low byte, not the whole word, is the key — so the spill map and the table
// must together equal the map-based reference.
func TestQ1KernelGroupFallback(t *testing.T) {
	for _, distinct := range []int{1, q1Slots, q1Slots + 1, 40, 1 << 16} {
		rng := rand.New(rand.NewSource(int64(distinct)))
		const n = 2*vecRows + 13
		var c [7][]int64
		for j := range c {
			c[j] = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			c[0][i] = rng.Int63n(1000)
			for j := 1; j <= 4; j++ {
				c[j][i] = edgeInt64(rng)
			}
			key := rng.Intn(distinct)
			// The high bits must be ignored: only byte(v) keys the group.
			c[5][i] = int64(rng.Uint64())&^0xff | int64(key>>8&0xff)
			c[6][i] = int64(rng.Uint64())&^0xff | int64(key&0xff)
		}
		// The extreme keys, present whatever the draw.
		c[5][0], c[6][0], c[0][0] = 0, 0, 0
		c[5][1], c[6][1], c[0][1] = -1, -1, 0
		// On these edge-valued columns the x == -1 skip really fires (a
		// charge of -1 with no rounds), so each extraArith has its own
		// reference: the skip must be fed exactly as in Q1Chunk.
		for _, extra := range []int{0, 8, 25} {
			want := q1Ref(c[0], c[1], c[2], c[3], c[4], c[5], c[6], 700, extra)
			for _, avx2 := range avx2Bodies(t) {
				got := q1Kernel(c[:], 700, extra, avx2)
				sameQ1(t, got, want)
				if distinct > q1Slots && len(got) <= q1Slots {
					t.Errorf("%s body, distinct=%d: only %d groups, the fallback was not exercised", bodyName(avx2), distinct, len(got))
				}
			}
		}
	}
}

// synthQ1 builds n rows of Q1 columns from seed: edge-valued measures, so
// the x == -1 skip fires, or — by the seed's draw — prices, discounts and
// taxes in the range the AVX2 pass is exact over with one row in 64 just
// outside it, so that pass runs, stops and hands over; dates that by the seed's draw all lie at or before
// dateMax (true bounds decide All), all past it (None, unless nothing is),
// or span int64 with a third planted on dateMax or beside it (Some); and
// flag and status words whose low bytes — all that keys a group — take
// groups distinct pairs under arbitrary high bits.
func synthQ1(seed int64, n int, dateMax int64, groups int) (c [7][]int64) {
	rng := rand.New(rand.NewSource(seed))
	mode, inRange := rng.Intn(3), rng.Intn(2) == 0
	for j := range c {
		c[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		step := int64(rng.Intn(1000))
		switch {
		case mode == 0:
			if c[0][i] = dateMax - step; c[0][i] > dateMax {
				c[0][i] = math.MinInt64
			}
		case mode == 1:
			if c[0][i] = dateMax + 1 + step; c[0][i] <= dateMax {
				c[0][i] = math.MaxInt64
			}
		case step%3 == 0:
			c[0][i] = dateMax + step%5 - 2
		default:
			c[0][i] = edgeInt64(rng)
		}
		for j := 1; j <= 4; j++ {
			c[j][i] = edgeInt64(rng)
		}
		if inRange {
			c[2][i], c[3][i], c[4][i] = q1InRange(rng)
			if rng.Intn(64) == 0 {
				c[2][i], c[3][i], c[4][i] = q1OutOfRange(rng, c[2][i], c[3][i], c[4][i])
			}
		}
		key := int64(rng.Intn(groups))
		c[5][i] = int64(rng.Uint64())&^0xff | key%16
		c[6][i] = int64(rng.Uint64())&^0xff | key/16
	}
	return c
}

// checkQ1 holds each Q1 body, given the columns' true bounds and given none,
// to q1Ref, and what the bounds decided to what they say.
func checkQ1(t *testing.T, c [7][]int64, dateMax int64, rounds int) {
	t.Helper()
	want := q1Ref(c[0], c[1], c[2], c[3], c[4], c[5], c[6], dateMax, rounds)
	for _, avx2 := range avx2Bodies(t) {
		for _, z := range []storage.Zone{zoneOf(c[0]), storage.AnyZone} {
			got, decided := q1Bounded(avx2, c, dateMax, rounds, z)
			if d := z.Decide(math.MinInt64, dateMax); decided != d {
				t.Fatalf("%s body, n=%d dateMax=%d bounds %v: decided %d, the bounds say %d", bodyName(avx2), len(c[0]), dateMax, z, decided, d)
			}
			sameQ1(t, got, want)
		}
	}
}

// TestQ1KernelMatchesReference: every decision, block-ragged lengths, both
// ends of int64 for dateMax, every round count and more groups than the
// table holds, against q1Ref.
func TestQ1KernelMatchesReference(t *testing.T) {
	var seen [3]int
	for seed := int64(0); seed < 300; seed++ {
		n := []int{0, 1, 7, q1Block - 1, q1Block, q1Block + 1, 3*q1Block + 77}[seed%7]
		dateMax := []int64{0, -1, 700, math.MinInt64, math.MaxInt64 - 1, math.MaxInt64}[seed%6]
		c := synthQ1(seed, n, dateMax, 1+int(seed)%40)
		checkQ1(t, c, dateMax, int(seed)%26)
		seen[zoneOf(c[0]).Decide(math.MinInt64, dateMax)]++
	}
	for d, n := range seen {
		if n < 30 {
			t.Errorf("only %d cases decided %d: the generator no longer exercises that shape", n, d)
		}
	}
}

func FuzzQ1Kernel(f *testing.F) {
	for i, n := range []int{0, 1, 7, q1Block - 1, q1Block + 1, 3*q1Block + 77} {
		f.Add(int64(i), uint16(n), int64(700), uint8(8), uint8(6))
	}
	f.Add(int64(6), uint16(2*q1Block+3), int64(math.MaxInt64), uint8(0), uint8(q1Slots+1))
	f.Add(int64(7), uint16(q1Block+9), int64(math.MinInt64), uint8(25), uint8(40))
	f.Add(int64(8), uint16(5*q1Block), int64(-1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dateMax int64, rounds, groups uint8) {
		c := synthQ1(seed, int(n)%(8*q1Block), dateMax, 1+int(groups)%40)
		checkQ1(t, c, dateMax, int(rounds)%26)
	})
}

// q1ArithRoundsRef is q1Arith and q1Rounds spelled as q1Ref spells them:
// each row's discounted price and charge, the sum of the rows' results and
// which of them are -1.
func q1ArithRoundsRef(price, disc, tax, qty []int64, rounds int) (dp, ch []int64, sum int64, skip []int) {
	for i, p := range price {
		d := p * (100 - disc[i]) / 100
		x := d * (100 + tax[i]) / 100
		dp, ch = append(dp, d), append(ch, x)
		for r := 0; r < rounds; r++ {
			x = x*31 + qty[i]
			x ^= x >> 7
		}
		sum += x
		if x == -1 {
			skip = append(skip, i)
		}
	}
	return dp, ch, sum, skip
}

// q1InRange draws a price, discount and tax the AVX2 body is exact over
// (q1ArithRoundsAVX2): each at an end of its range, beside one, or anywhere
// inside it.
func q1InRange(rng *rand.Rand) (price, disc, tax int64) {
	pick := func(lo, hi int64) int64 {
		if v := []int64{lo, lo + 1, hi - 1, hi}; rng.Intn(2) == 0 {
			return v[rng.Intn(len(v))]
		}
		return lo + rng.Int63n(hi-lo+1)
	}
	return pick(0, 1<<31-1), pick(-27, 100), pick(-100, 155)
}

// q1OutOfRange returns the row (price, disc, tax) with one of them moved
// just outside the AVX2 body's range, or to an edge value.
func q1OutOfRange(rng *rand.Rand, price, disc, tax int64) (int64, int64, int64) {
	out := func(v ...int64) int64 {
		if rng.Intn(4) == 0 {
			return edgeInt64(rng)
		}
		return v[rng.Intn(len(v))]
	}
	switch rng.Intn(3) {
	case 0:
		price = out(-1, 1<<31, math.MinInt64)
	case 1:
		disc = out(-28, 101, math.MaxInt64)
	default:
		tax = out(-101, 156, math.MinInt64)
	}
	return price, disc, tax
}

// TestQ1ArithRoundsBodiesAgree holds each body of the price arithmetic and
// the rounds to q1ArithRoundsRef — the discounted prices and charges, the
// sum of the results, which the arithmetic of every round moves, and the
// rows moved to the skip ordinal — run apart and in place, and the AVX2
// assembly alone to the Go bodies over the sixteen-row steps it must run:
// every one before the first with a row out of its range. Rows are
// edge-valued, all in that range (its ends, their neighbours, anything
// inside), or in it but for one row just outside; the round counts run from
// 0 to 25, the lengths from 0 to 40 — no step, whole steps, steps with each
// tail — and one block. At rounds 0, the one count a result can be -1 at, a
// charge of -1 (a price of -1, a discount of -100, a tax of -50) is planted
// in turn at the first row, a middle one and the last, so the tail and the
// rows after a step out of range are checked.
func TestQ1ArithRoundsBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for n := 0; n <= q1Block; n++ {
		if n > 40 && n < q1Block {
			continue
		}
		for mode, name := range []string{"edge", "in range", "one out"} {
			price, disc, tax, qty := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
			for i := range price {
				qty[i] = edgeInt64(rng)
				if mode == 0 {
					price[i], disc[i], tax[i] = edgeInt64(rng), edgeInt64(rng), edgeInt64(rng)
				} else {
					price[i], disc[i], tax[i] = q1InRange(rng)
				}
			}
			if mode == 2 && n > 0 {
				i := rng.Intn(n)
				price[i], disc[i], tax[i] = q1OutOfRange(rng, price[i], disc[i], tax[i])
			}
			for rounds := 0; rounds <= 25; rounds++ {
				plants := []int{-1}
				if rounds == 0 && n > 0 {
					plants = append(plants, 0, n/2, n-1)
				}
				for _, at := range plants {
					p, d, tx := slices.Clone(price), slices.Clone(disc), slices.Clone(tax)
					if at >= 0 {
						p[at], d[at], tx[at] = -1, -100, -50
					}
					wantDP, wantCH, wantSum, wantSkip := q1ArithRoundsRef(p, d, tx, qty, rounds)
					for _, avx2 := range avx2Bodies(t) {
						for _, inPlace := range []bool{false, true} {
							gid, dp, ch := make([]uint8, n), make([]int64, n), make([]int64, n)
							bd, bt := d, tx
							if inPlace {
								copy(dp, d)
								copy(ch, tx)
								bd, bt = dp, ch
							}
							sum := q1ArithRoundsBody(avx2, gid, dp, ch, p, bd, bt, qty, rounds)
							var skip []int
							for i, g := range gid {
								if g == q1Skip {
									skip = append(skip, i)
								}
							}
							if sum != wantSum || !slices.Equal(skip, wantSkip) || !slices.Equal(dp, wantDP) || !slices.Equal(ch, wantCH) {
								t.Errorf("%s body, %s, in place %v, n=%d rounds=%d -1 at %d: sum %d, skip %v; reference %d, %v (prices and charges equal: %v)",
									bodyName(avx2), name, inPlace, n, rounds, at, sum, skip, wantSum, wantSkip,
									slices.Equal(dp, wantDP) && slices.Equal(ch, wantCH))
							}
						}
					}
					if !hasAVX2 {
						continue
					}
					m := 0 // the rows of the whole steps before the first out of range
					for m+16 <= n {
						in := true
						for i := m; i < m+16; i++ {
							in = in && p[i] >= 0 && p[i] < 1<<31 && d[i] >= -27 && d[i] <= 100 && tx[i] >= -100 && tx[i] <= 155
						}
						if !in {
							break
						}
						m += 16
					}
					dp, ch := make([]int64, n), make([]int64, n)
					sum, rows := q1ArithRoundsAVX2(dp, ch, p, d, tx, qty, rounds)
					if rows != m {
						t.Fatalf("assembly, %s, n=%d rounds=%d -1 at %d: ran %d rows, want %d", name, n, rounds, at, rows, m)
					}
					goDP, goCH := make([]int64, m), make([]int64, m)
					q1Arith(goDP, goCH, p[:m], d, tx)
					want := q1Rounds(make([]uint8, m), goCH, qty, rounds, q1Mul)
					if sum != want || !slices.Equal(dp[:m], goDP) || !slices.Equal(ch[:m], goCH) {
						t.Errorf("assembly, %s, n=%d rounds=%d: sum %d, q1Rounds %d (prices and charges equal: %v)",
							name, n, rounds, sum, want, slices.Equal(dp[:m], goDP) && slices.Equal(ch[:m], goCH))
					}
				}
			}
		}
	}
}

// TestQ1OrdinalsBodiesAgree holds each body of q1Table.ordinals to the Go
// body — the ordinals and the table after them — and the AVX2 assembly alone
// to the steps it must run: every four-row step before the first with a key
// away from its home entry. The table starts empty, holding TPC-H's six keys
// (at home entries in both halves of the table), or holding keys that
// collide on their home entries, three of them displaced; rows draw the
// table's keys (TPC-H's for the empty one), or those and, one row in eight,
// other low bytes, under arbitrary high bits; the lengths run from 0 to 9
// and one block.
func TestQ1OrdinalsBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var tpchKeys [][2]int64
	for _, f := range []int64{'A', 'N', 'R'} {
		for _, st := range []int64{'F', 'O'} {
			tpchKeys = append(tpchKeys, [2]int64{f, st})
		}
	}
	// (0, 0) and (2, 1) share home entry 0, as (1, 0) and (3, 1) share 1:
	// the second of each pair is displaced.
	colliding := [][2]int64{{0, 0}, {2, 1}, {1, 0}, {3, 1}}
	presets := map[string][][2]int64{"empty": nil, "TPC-H": tpchKeys, "colliding": colliding}
	for name, preset := range presets {
		var base q1Table
		for _, k := range preset {
			base.ordinal(q1Key(k[0], k[1]))
		}
		pool := preset
		if len(pool) == 0 {
			pool = tpchKeys
		}
		for _, mixed := range []bool{false, true} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, q1Block} {
				flag, status := make([]int64, n), make([]int64, n)
				for i := range flag {
					k := pool[rng.Intn(len(pool))]
					if mixed && rng.Intn(8) == 0 {
						k = [2]int64{int64(rng.Intn(256)), int64(rng.Intn(256))}
					}
					flag[i] = int64(rng.Uint64())&^0xff | k[0]
					status[i] = int64(rng.Uint64())&^0xff | k[1]
				}
				want, wantGid := base, make([]uint8, n)
				want.ordinals(wantGid, flag, status)
				for _, avx2 := range avx2Bodies(t) {
					got, gid := base, make([]uint8, n)
					got.ordinalsBody(avx2, gid, flag, status)
					if !slices.Equal(gid, wantGid) || got.keys != want.keys || got.used != want.used {
						t.Errorf("%s body, table %s, mixed %v, n=%d: ordinals %v, table %v/%d; Go body %v, %v/%d",
							bodyName(avx2), name, mixed, n, gid, got.keys, got.used, wantGid, want.keys, want.used)
					}
				}
				if !hasAVX2 {
					continue
				}
				m := 0 // the rows of the whole steps before the first away from home
				for ; m+4 <= n; m += 4 {
					home := true
					for i := m; i < m+4; i++ {
						key := q1Key(flag[i], status[i])
						home = home && base.keys[key%(2*q1Slots)] == key
					}
					if !home {
						break
					}
				}
				tbl, gid := base, make([]uint8, n)
				if rows := q1OrdinalsAVX2(&tbl.keys, gid, flag, status); rows != m || !slices.Equal(gid[:m], wantGid[:m]) {
					t.Errorf("assembly, table %s, mixed %v, n=%d: ran %d rows, want %d; ordinals %v, Go body %v",
						name, mixed, n, rows, m, gid[:m], wantGid[:min(m, n)])
				}
			}
		}
	}
}

// TestQ1SumBodiesAgree holds each body of q1Table.sum to adding row by row:
// every ordinal the mask leaves, edge-valued measures, the lengths 0 to 9 —
// no step, whole steps, steps with each tail — and one block.
func TestQ1SumBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, q1Block} {
		gid := make([]uint8, n)
		var m [4][]int64
		for j := range m {
			m[j] = make([]int64, n)
		}
		for i := range gid {
			gid[i] = uint8(rng.Intn(256))
			for j := range m {
				m[j][i] = edgeInt64(rng)
			}
		}
		var want q1Table
		for i, g := range gid {
			s := &want.sums[g&q1Mask]
			s.Count++
			s.SumQty += m[0][i]
			s.SumBase += m[1][i]
			s.SumDisc += m[2][i]
			s.SumCharge += m[3][i]
		}
		for _, avx2 := range avx2Bodies(t) {
			var got q1Table
			got.sumBody(avx2, gid, m[0], m[1], m[2], m[3])
			if got.sums != want.sums {
				t.Errorf("%s body, n=%d: sums %v, row by row %v", bodyName(avx2), n, got.sums, want.sums)
			}
		}
	}
}

// TestKernelAllocs: the Q6 kernel allocates nothing (its selection scratch
// is on the stack), the Q1 kernel only its result, on either body — a reintroduced per-call
// make, closure-per-row primitive or per-row map insert fails this.
func TestKernelAllocs(t *testing.T) {
	g := tpch.NewGenerator(tpch.LineitemTable(0.01), 41)
	const n = 4*vecRows + 5
	c := genCols(g, 0, n, tpch.ColShipDate, tpch.ColDiscount, tpch.ColQuantity, tpch.ColExtendedPrice)
	// A predicate every vector passes its date conjunct under, so all
	// passes run.
	pred := Q6Predicate{DateLo: tpch.DateMin, DateHi: tpch.DateMax + 1, DiscLo: 5, DiscHi: 7, MaxQty: 24}
	for _, avx2 := range avx2Bodies(t) {
		var q6 Q6Result
		if a := testing.AllocsPerRun(20, func() { q6 = q6Kernel(c, pred, avx2) }); a != 0 {
			t.Errorf("Q6Kernel, %s body: %v allocs per call, want 0", bodyName(avx2), a)
		}
		if q6.Rows == 0 {
			t.Errorf("Q6Kernel, %s body: qualified no row", bodyName(avx2))
		}
	}
	q := genCols(g, 0, n, tpch.ColShipDate, tpch.ColQuantity, tpch.ColExtendedPrice,
		tpch.ColDiscount, tpch.ColTax, tpch.ColReturnFlag, tpch.ColLineStatus)
	for _, avx2 := range avx2Bodies(t) {
		var q1 Q1Result
		a := testing.AllocsPerRun(20, func() { q1 = q1Kernel(q, tpch.DateMax, 8, avx2) })
		if len(q1) < 2 {
			t.Fatalf("Q1Kernel, %s body: found %d groups", bodyName(avx2), len(q1))
		}
		if max := float64(len(q1) + 1); a > max {
			t.Errorf("Q1Kernel, %s body: %v allocs per call for %d groups, want <= %v", bodyName(avx2), a, len(q1), max)
		}
		// The same with the dates' true bounds, which decide All.
		var decided storage.Decided
		a = testing.AllocsPerRun(20, func() {
			q1, decided = q1Bounded(avx2, [7][]int64(q), tpch.DateMax, 8, zoneOf(q[0]))
		})
		if decided != storage.All || len(q1) < 2 {
			t.Fatalf("Q1Kernel, %s body, over its true bounds decided %d and found %d groups", bodyName(avx2), decided, len(q1))
		}
		if max := float64(len(q1) + 1); a > max {
			t.Errorf("Q1Kernel, %s body, All: %v allocs per call for %d groups, want <= %v", bodyName(avx2), a, len(q1), max)
		}
	}
}

package exec

import (
	"math"
	"math/rand"
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
func q6Vectorized(g *tpch.Generator, start, n int64, pred Q6Predicate) Q6Result {
	c := genCols(g, start, n, tpch.ColShipDate, tpch.ColDiscount, tpch.ColQuantity, tpch.ColExtendedPrice)
	return q6Kernel(c, pred)
}

func q1Vectorized(g *tpch.Generator, start, n int64, dateMax int64, extraArith int) Q1Result {
	c := genCols(g, start, n, tpch.ColShipDate, tpch.ColQuantity, tpch.ColExtendedPrice,
		tpch.ColDiscount, tpch.ColTax, tpch.ColReturnFlag, tpch.ColLineStatus)
	return q1Kernel(c, dateMax, extraArith)
}

// q6Kernel and q1Kernel run the kernels told nothing of the chunk's bounds:
// every pass runs, as on a chunk that carries none. (decided_test.go holds
// the kernels given bounds against these.)
func q6Kernel(c [][]int64, pred Q6Predicate) Q6Result {
	res, _ := Q6Kernel(c[0], c[1], c[2], c[3], pred, storage.AnyZone, storage.AnyZone, storage.AnyZone)
	return res
}

func q1Kernel(c [][]int64, dateMax int64, extraArith int) Q1Result {
	res, _ := Q1Kernel(c[0], c[1], c[2], c[3], c[4], c[5], c[6], dateMax, extraArith, storage.AnyZone)
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
	b := q6Vectorized(g, 0, 30000, pred)
	if a != b {
		t.Errorf("scalar %+v != vectorized %+v", a, b)
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
		return Q6Chunk(g, start, n, pred) == q6Vectorized(g, start, n, pred)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQ1VectorizedMatchesScalar(t *testing.T) {
	g := tpch.NewGenerator(tpch.LineitemTable(0.01), 31)
	want := Q1Chunk(g, 0, 40000, tpch.DateMax-90, 0)
	for _, extra := range []int{0, 8, 25} {
		sameQ1(t, q1Vectorized(g, 0, 40000, tpch.DateMax-90, extra), want)
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

func TestQuickQ6KernelMatchesReference(t *testing.T) {
	hits := 0
	f := func(seed int64) bool {
		n := kernelRowCounts[int(uint64(seed)%uint64(len(kernelRowCounts)))]
		c, pred := synthQ6(seed, n)
		want := q6Ref(c[0], c[1], c[2], c[3], pred)
		hits += b2i(want.Rows > 0)
		return q6Kernel(c[:], pred) == want
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
	for _, n := range kernelRowCounts {
		c, _ := synthQ6(int64(n)+1, n)
		for _, pred := range preds {
			got, want := q6Kernel(c[:], pred), q6Ref(c[0], c[1], c[2], c[3], pred)
			if got != want {
				t.Errorf("n=%d pred=%+v: kernel %+v, reference %+v", n, pred, got, want)
			}
		}
	}
}

func FuzzQ6Kernel(f *testing.F) {
	for i, n := range kernelRowCounts {
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
		if got, want := q6Kernel(c[:], pred), q6Ref(c[0], c[1], c[2], c[3], pred); got != want {
			t.Fatalf("pred=%+v n=%d: kernel %+v, reference %+v", pred, len(c[0]), got, want)
		}
	})
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
			got := q1Kernel(c[:], 700, extra)
			sameQ1(t, got, q1Ref(c[0], c[1], c[2], c[3], c[4], c[5], c[6], 700, extra))
			if distinct > q1Slots && len(got) <= q1Slots {
				t.Errorf("distinct=%d: only %d groups, the fallback was not exercised", distinct, len(got))
			}
		}
	}
}

// TestKernelAllocs: the Q6 kernel allocates nothing (its selection scratch
// is on the stack), the Q1 kernel only its result — a reintroduced per-call
// make, closure-per-row primitive or per-row map insert fails this.
func TestKernelAllocs(t *testing.T) {
	g := tpch.NewGenerator(tpch.LineitemTable(0.01), 41)
	const n = 4*vecRows + 5
	c := genCols(g, 0, n, tpch.ColShipDate, tpch.ColDiscount, tpch.ColQuantity, tpch.ColExtendedPrice)
	// A predicate every vector passes its date conjunct under, so all
	// passes run.
	pred := Q6Predicate{DateLo: tpch.DateMin, DateHi: tpch.DateMax + 1, DiscLo: 5, DiscHi: 7, MaxQty: 24}
	var q6 Q6Result
	if a := testing.AllocsPerRun(20, func() { q6 = q6Kernel(c, pred) }); a != 0 {
		t.Errorf("Q6Kernel: %v allocs per call, want 0", a)
	}
	if q6.Rows == 0 {
		t.Error("Q6Kernel qualified no row")
	}
	q := genCols(g, 0, n, tpch.ColShipDate, tpch.ColQuantity, tpch.ColExtendedPrice,
		tpch.ColDiscount, tpch.ColTax, tpch.ColReturnFlag, tpch.ColLineStatus)
	var q1 Q1Result
	a := testing.AllocsPerRun(20, func() { q1 = q1Kernel(q, tpch.DateMax, 8) })
	if len(q1) < 2 {
		t.Fatalf("Q1Kernel found %d groups", len(q1))
	}
	if max := float64(len(q1) + 1); a > max {
		t.Errorf("Q1Kernel: %v allocs per call for %d groups, want <= %v", a, len(q1), max)
	}
}

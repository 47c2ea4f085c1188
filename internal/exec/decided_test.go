package exec

import (
	"math"
	"math/rand"
	"testing"

	"coopscan/internal/storage"
)

// The kernels given a chunk's bounds against the kernels given none and the
// scalar reference: whatever the bounds decide, the answer is the one every
// pass over every row gives.

// zoneOf is the true bounds of a column (inverted for an empty one).
func zoneOf(col []int64) storage.Zone {
	z := storage.Zone{Lo: math.MaxInt64, Hi: math.MinInt64}
	for _, v := range col {
		z.Lo, z.Hi = min(z.Lo, v), max(z.Hi, v)
	}
	return z
}

// widen returns z grown by up to slack (below MaxInt64) on each side,
// saturating: bounds that still hold, as a zonemap coarser than the chunk
// would give.
func widen(z storage.Zone, rng *rand.Rand, slack int64) storage.Zone {
	if z.Lo > z.Hi {
		return z
	}
	lo, hi := z.Lo-rng.Int63n(slack+1), z.Hi+rng.Int63n(slack+1)
	if lo > z.Lo {
		lo = math.MinInt64
	}
	if hi < z.Hi {
		hi = math.MaxInt64
	}
	return storage.Zone{Lo: lo, Hi: hi}
}

// checkDecided runs the Q6 kernel over c with the columns' true bounds, with
// widened ones and with none, holds all three to the scalar reference, and
// returns what the true bounds decided.
func checkDecided(t testing.TB, c [4][]int64, pred Q6Predicate, rng *rand.Rand) storage.Decided {
	t.Helper()
	want := q6Ref(c[0], c[1], c[2], c[3], pred)
	if got := q6Kernel(c[:], pred); got != want {
		t.Fatalf("pred=%+v n=%d: kernel without bounds %+v, reference %+v", pred, len(c[0]), got, want)
	}
	dateZ, discZ, qtyZ := zoneOf(c[0]), zoneOf(c[1]), zoneOf(c[2])
	got, decided := Q6Kernel(c[0], c[1], c[2], c[3], pred, dateZ, discZ, qtyZ)
	if got != want {
		t.Fatalf("pred=%+v n=%d bounds %v %v %v (decided %d): kernel %+v, reference %+v",
			pred, len(c[0]), dateZ, discZ, qtyZ, decided, got, want)
	}
	if decided == storage.None && want.Rows != 0 {
		t.Fatalf("pred=%+v: decided none, %d rows qualify", pred, want.Rows)
	}
	for _, slack := range []int64{1, 50, math.MaxInt64 - 1} {
		dw, cw, qw := widen(dateZ, rng, slack), widen(discZ, rng, slack), widen(qtyZ, rng, slack)
		if got, _ := Q6Kernel(c[0], c[1], c[2], c[3], pred, dw, cw, qw); got != want {
			t.Fatalf("pred=%+v n=%d widened bounds %v %v %v: kernel %+v, reference %+v", pred, len(c[0]), dw, cw, qw, got, want)
		}
	}
	return decided
}

// clusteredQ6 builds n rows whose every column sits in a narrow window placed
// inside, across an end of, or somewhere near the range its conjunct selects,
// so that true bounds decide all three ways — synthQ6's full-range columns
// never let bounds decide anything. A quarter of the predicates are synthQ6's:
// edge values, empty and inverted ranges included.
func clusteredQ6(seed int64, n int) (cols [4][]int64, pred Q6Predicate) {
	rng := rand.New(rand.NewSource(seed))
	if rng.Intn(4) == 0 {
		_, pred = synthQ6(seed, 0)
	} else {
		pred = Q6Predicate{DateLo: rng.Int63n(400) - 200, DiscLo: rng.Int63n(10) - 5, MaxQty: rng.Int63n(60) - 10}
		pred.DateHi = pred.DateLo + rng.Int63n(300) - 10
		pred.DiscHi = pred.DiscLo + rng.Int63n(8) - 1
	}
	ranges := [4][2]int64{{pred.DateLo, pred.DateHi - 1}, {pred.DiscLo, pred.DiscHi}, {pred.MaxQty - 40, pred.MaxQty - 1}, {0, 100}}
	for c, r := range ranges {
		lo, hi := r[0], r[1]
		switch width := hi - lo; {
		case width < 0 || width > 1<<20: // empty, wrapped or enormous: anywhere near its start
			lo, hi = lo-20, lo+20
		case rng.Intn(10) < 5: // inside
			lo += rng.Int63n(width/2 + 1)
			hi -= rng.Int63n(width/2 + 1)
		case rng.Intn(5) < 3: // across one end
			if d := 1 + rng.Int63n(width+1); rng.Intn(2) == 0 {
				lo, hi = lo-d, lo+d
			} else {
				lo, hi = hi-d, hi+d
			}
		default: // near it, mostly outside
			lo += rng.Int63n(4*width+40) - 2*width - 20
			hi = lo + rng.Int63n(width+5)
		}
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = lo + rng.Int63n(hi-lo+1)
		}
	}
	return cols, pred
}

func TestQ6KernelDecidedMatchesReference(t *testing.T) {
	var seen [3]int
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 1500; seed++ {
		n := kernelRowCounts[1+int(seed)%(len(kernelRowCounts)-1)]
		c, pred := clusteredQ6(seed, n)
		seen[checkDecided(t, c, pred, rng)]++
		c, pred = synthQ6(seed, n)
		checkDecided(t, c, pred, rng)
	}
	t.Logf("clustered columns decided some %d, none %d, all %d", seen[storage.Some], seen[storage.None], seen[storage.All])
	for d, n := range seen {
		if n < 50 {
			t.Errorf("only %d of the clustered cases decided %d: the generator no longer exercises that shape", n, d)
		}
	}
	// No rows: true bounds are inverted, which decides none.
	c, pred := clusteredQ6(1, 0)
	if d := checkDecided(t, c, DefaultQ6(), rng); d != storage.None {
		t.Errorf("empty chunk under %+v decided %d, want none", pred, d)
	}
}

// TestQ6KernelEveryDecision builds each of the 27 combinations of the three
// conjuncts' bounds lying outside, inside and across their ranges by hand
// and checks the decision taken as well as the answer.
func TestQ6KernelEveryDecision(t *testing.T) {
	pred := Q6Predicate{DateLo: 100, DateHi: 200, DiscLo: 5, DiscHi: 7, MaxQty: 24}
	// Value windows [lo, hi] per conjunct, indexed by storage.Decided.
	windows := [3][3][2]int64{
		{storage.None: {200, 300}, storage.All: {100, 199}, storage.Some: {50, 100}},
		{storage.None: {8, 10}, storage.All: {5, 7}, storage.Some: {3, 5}},
		{storage.None: {24, 50}, storage.All: {-3, 23}, storage.Some: {23, 24}},
	}
	rng := rand.New(rand.NewSource(2))
	states := [3]storage.Decided{storage.None, storage.All, storage.Some}
	for _, date := range states {
		for _, disc := range states {
			for _, qty := range states {
				const n = 2*vecRows + 5
				var c [4][]int64
				for j, st := range [3]storage.Decided{date, disc, qty} {
					w := windows[j][st]
					c[j] = make([]int64, n)
					for i := range c[j] {
						c[j][i] = w[0] + rng.Int63n(w[1]-w[0]+1)
					}
					c[j][0], c[j][n-1] = w[0], w[1] // the window's ends are the bounds
				}
				c[3] = make([]int64, n)
				for i := range c[3] {
					c[3][i] = edgeInt64(rng)
				}
				want := date
				if date == storage.None || disc == storage.None || qty == storage.None {
					want = storage.None
				}
				if got := checkDecided(t, c, pred, rng); got != want {
					t.Errorf("date %d, disc %d, qty %d: decided %d, want %d", date, disc, qty, got, want)
				}
				if want == storage.All && q6Ref(c[0], c[1], c[2], c[3], pred).Rows == 0 && disc == storage.All && qty == storage.All {
					t.Errorf("date, disc and qty all inside their ranges and no row qualifies")
				}
			}
		}
	}
}

// TestQ6KernelDecidedAtTheEnds puts each predicate field at either end of
// int64 with the data (and so the true bounds) on the same end. The
// inclusive rendering of [DateLo, DateHi) and of qty < MaxQty — DateHi-1,
// MaxQty-1 — wraps at MinInt64 into an interval that holds everything: fine
// for pruning, which then only keeps more, and wrong for an "all", which
// must be decided from the predicate's own fields.
func TestQ6KernelDecidedAtTheEnds(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	full := Q6Predicate{DateLo: lo, DateHi: hi, DiscLo: lo, DiscHi: hi, MaxQty: hi}
	with := func(set func(*Q6Predicate)) Q6Predicate { p := full; set(&p); return p }
	cases := []struct {
		name string
		pred Q6Predicate
		want storage.Decided // with every column drawn from both ends and the middle
	}{
		{"full", full, storage.Some}, // DateHi and MaxQty are exclusive: the rows at MaxInt64 fail
		{"DateHi=min", with(func(p *Q6Predicate) { p.DateHi = lo }), storage.None},
		{"DateHi=min DateLo=0", with(func(p *Q6Predicate) { p.DateLo, p.DateHi = 0, lo }), storage.None},
		{"DateLo=max", with(func(p *Q6Predicate) { p.DateLo = hi }), storage.None},
		{"DateLo=max-1", with(func(p *Q6Predicate) { p.DateLo = hi - 1 }), storage.Some},
		{"DateHi=min+1", with(func(p *Q6Predicate) { p.DateHi = lo + 1 }), storage.Some},
		{"DiscLo=max", with(func(p *Q6Predicate) { p.DiscLo = hi }), storage.Some},
		{"DiscHi=min", with(func(p *Q6Predicate) { p.DiscHi = lo }), storage.Some},
		{"DiscLo=max DiscHi=min", with(func(p *Q6Predicate) { p.DiscLo, p.DiscHi = hi, lo }), storage.None},
		{"MaxQty=min", with(func(p *Q6Predicate) { p.MaxQty = lo }), storage.None},
		{"MaxQty=min+1", with(func(p *Q6Predicate) { p.MaxQty = lo + 1 }), storage.Some},
	}
	rng := rand.New(rand.NewSource(3))
	ends := [...]int64{lo, lo + 1, -1, 0, 1, hi - 1, hi}
	for _, tc := range cases {
		var c [4][]int64
		for j := range c {
			c[j] = make([]int64, vecRows+3)
			for i := range c[j] {
				c[j][i] = ends[rng.Intn(len(ends))]
			}
			copy(c[j], ends[:]) // every end is present: the bounds are the whole range
		}
		if got := checkDecided(t, c, tc.pred, rng); got != tc.want {
			t.Errorf("%s: decided %d, want %d", tc.name, got, tc.want)
		}
		// The same predicate over columns pinned to one end each: bounds one
		// value wide, on the value where the rendering wraps.
		for _, end := range [...]int64{lo, hi} {
			for j := range c[:3] {
				for i := range c[j] {
					c[j][i] = end
				}
			}
			checkDecided(t, c, tc.pred, rng)
		}
	}
	// The one combination where only the predicate's own fields tell an
	// empty conjunct from one that holds every row: dates all at MaxInt64
	// under DateHi == MinInt64 render as [DateLo, MaxInt64] ∋ MaxInt64.
	dates := []int64{hi, hi, hi}
	other := []int64{0, 0, 0}
	pred := with(func(p *Q6Predicate) { p.DateHi = lo })
	if res, d := Q6Kernel(dates, other, other, other, pred, zoneOf(dates), zoneOf(other), zoneOf(other)); d != storage.None || res != (Q6Result{}) {
		t.Errorf("DateHi=MinInt64 over dates at MaxInt64: %+v decided %d, want nothing, decided none", res, d)
	}
	qtys := []int64{lo, lo, lo}
	pred = with(func(p *Q6Predicate) { p.MaxQty = lo })
	if res, d := Q6Kernel(other, other, qtys, other, pred, zoneOf(other), zoneOf(other), zoneOf(qtys)); d != storage.None || res != (Q6Result{}) {
		t.Errorf("MaxQty=MinInt64 over quantities at MinInt64: %+v decided %d, want nothing, decided none", res, d)
	}
}

func FuzzQ6KernelDecided(f *testing.F) {
	for i, n := range kernelRowCounts {
		_, p := clusteredQ6(int64(i), 0)
		f.Add(int64(i), uint16(n), p.DateLo, p.DateHi, p.DiscLo, p.DiscHi, p.MaxQty)
	}
	f.Add(int64(9), uint16(vecRows), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add(int64(10), uint16(vecRows+1), int64(0), int64(math.MinInt64), int64(1), int64(0), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dateLo, dateHi, discLo, discHi, maxQty int64) {
		// The columns cluster around a predicate drawn from seed; the fuzzed
		// one lands wherever it lands relative to them.
		c, _ := clusteredQ6(seed, int(n)%(4*vecRows))
		pred := Q6Predicate{DateLo: dateLo, DateHi: dateHi, DiscLo: discLo, DiscHi: discHi, MaxQty: maxQty}
		rng := rand.New(rand.NewSource(seed))
		checkDecided(t, c, pred, rng)
		// And with the fuzzed bounds planted in the data, as FuzzQ6Kernel does.
		for _, col := range c {
			for _, b := range []int64{dateLo, dateHi, discLo, discHi, maxQty} {
				if len(col) > 0 {
					col[rng.Intn(len(col))] = b
				}
			}
		}
		checkDecided(t, c, pred, rng)
	})
}

// TestQ1KernelDecided: bounds that put every date past dateMax answer an
// empty result and decide none; a chunk whose earliest date is dateMax does
// not, and wider bounds never change the answer.
func TestQ1KernelDecided(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = vecRows + 9
	var c [7][]int64
	for j := range c {
		c[j] = make([]int64, n)
		for i := range c[j] {
			c[j][i] = 500 + rng.Int63n(100)
		}
	}
	c[0][3] = 500 // the chunk's earliest date
	z := zoneOf(c[0])
	for _, dateMax := range []int64{math.MinInt64, 0, 499, 500, 501, 550, 599, 600, math.MaxInt64} {
		want := q1Ref(c[0], c[1], c[2], c[3], c[4], c[5], c[6], dateMax, 3)
		sameQ1(t, q1Kernel(c[:], dateMax, 3), want)
		for _, zone := range []storage.Zone{z, widen(z, rng, 1), widen(z, rng, 1000), storage.AnyZone} {
			got, decided := Q1Kernel(c[0], c[1], c[2], c[3], c[4], c[5], c[6], dateMax, 3, zone)
			sameQ1(t, got, want)
			if wantNone := zone.Lo > dateMax; (decided == storage.None) != wantNone {
				t.Errorf("dateMax %d, bounds %v: decided %d, want none: %v", dateMax, zone, decided, wantNone)
			}
			if got == nil {
				t.Errorf("dateMax %d: nil result", dateMax)
			}
		}
	}
}

package core

import (
	"testing"

	"coopscan/internal/storage"
)

// liveClock is a settable Clock for live-mode tests.
type liveClock struct{ t float64 }

func (c *liveClock) Now() float64 { return c.t }

// liveManagerPair builds a live manager with two 16-chunk NSM tables
// ("hot" and "cold", 1 MiB chunks) attached at the 2-chunk floor.
func liveManagerPair(t *testing.T) (*Manager, *ABM, *ABM) {
	t.Helper()
	m := NewLiveManager(&liveClock{}, Config{Policy: Relevance})
	hot := nsmTestLayout(16)
	hot.Table().Name = "hot"
	cold := nsmTestLayout(16)
	cold.Table().Name = "cold"
	return m, m.Attach(hot, 2<<20), m.Attach(cold, 2<<20)
}

// registerFullScan registers a query over the whole table; with nothing
// resident it is immediately starved.
func registerFullScan(a *ABM, name string) *Query {
	q := a.NewQuery(name, storage.NewRangeSet(storage.Range{Start: 0, End: a.layout.NumChunks()}), 0)
	a.Register(q)
	return q
}

// A table whose streams are all starved must pull the shared budget away
// from a table with no demand at all, which keeps only its two-chunk floor.
func TestLiveManagerRebalanceStarvedVsIdle(t *testing.T) {
	m, hot, cold := liveManagerPair(t)
	for i := 0; i < 4; i++ {
		if q := registerFullScan(hot, "hq"); !q.starved {
			t.Fatal("a full scan with nothing resident is not starved")
		}
	}
	if d := cold.DemandBytes(); d != 0 {
		t.Fatalf("cold demand = %d bytes, want idle", d)
	}

	const total = 32 << 20
	floor := chunkFloorBytes(cold.layout) // two chunks
	grants := m.Rebalance(total)
	if len(grants) != 2 {
		t.Fatalf("grants = %v", grants)
	}
	if grants[1] != floor {
		t.Errorf("idle table granted %d, want the floor %d", grants[1], floor)
	}
	if grants[0] != total-floor {
		t.Errorf("starved table granted %d, want the rest of the budget %d", grants[0], total-floor)
	}
	if sum := grants[0] + grants[1]; sum > total {
		t.Errorf("grants sum %d exceeds the budget %d", sum, total)
	}
	if hot.BufferBytes() != grants[0] || cold.BufferBytes() != grants[1] {
		t.Errorf("grants not applied: budgets (%d, %d) vs grants %v",
			hot.BufferBytes(), cold.BufferBytes(), grants)
	}
}

// With no demand anywhere the budget splits evenly.
func TestLiveManagerRebalanceIdleSplitsEvenly(t *testing.T) {
	m, _, _ := liveManagerPair(t)
	grants := m.Rebalance(32 << 20)
	if grants[0] != grants[1] || grants[0] != 16<<20 {
		t.Errorf("idle grants = %v, want an even split of 32 MiB", grants)
	}
}

// A shrink never takes back bytes a table is still using: the grant clamps
// at the current usage and the overage is charged to the growing table, so
// the granted total stays within the budget.
func TestLiveManagerRebalanceNeverShrinksBelowUsage(t *testing.T) {
	m, hot, cold := liveManagerPair(t)
	// Park 8 MiB of usage on the cold table (reservations the arbiter must
	// respect even though the table has no demand).
	cold.SetBufferBytes(8 << 20)
	for c := 0; c < 8; c++ {
		cold.beginLoad(LoadDecision{Chunk: c})
	}
	if got := cold.UsedBytes(); got != 8<<20 {
		t.Fatalf("cold usage = %d, want 8 MiB", got)
	}
	for i := 0; i < 4; i++ {
		registerFullScan(hot, "hq")
	}

	const total = 32 << 20
	grants := m.Rebalance(total)
	if grants[1] != 8<<20 {
		t.Errorf("cold granted %d, want its usage 8 MiB", grants[1])
	}
	if grants[0] > total-grants[1] {
		t.Errorf("hot granted %d, overcommits the budget (cold holds %d of %d)",
			grants[0], grants[1], total)
	}
	if sum := grants[0] + grants[1]; sum > total {
		t.Errorf("grants sum %d exceeds the budget %d", sum, total)
	}
	// As the cold table drains, re-running the arbiter hands the freed
	// bytes to the starved table.
	for c := 0; c < 8; c++ {
		cold.finishLoad(LoadDecision{Chunk: c}, nil)
	}
	for _, pt := range cold.cache.loadedParts() {
		cold.evictPart(pt.key)
		break // drop one chunk: usage 7 MiB
	}
	grants = m.Rebalance(total)
	if grants[1] != 7<<20 {
		t.Errorf("cold granted %d after draining one chunk, want 7 MiB", grants[1])
	}
	if grants[0] != total-grants[1] {
		t.Errorf("hot granted %d, want the freed remainder %d", grants[0], total-grants[1])
	}
}

// When one table's pinned usage exceeds the others' headroom (a tight
// budget with an attach mid-traffic is the real-world trigger, found by
// the serve-level soak), charging the overage proportionally must not cut
// a grant below its usage/floor — an uncapped cut used to hand a table a
// negative or sub-page budget and panic bufcache.resize.
func TestLiveManagerRebalanceOverageNeverCutsBelowFloor(t *testing.T) {
	m := NewLiveManager(&liveClock{}, Config{Policy: Relevance})
	names := []string{"a", "b", "c"}
	abms := make([]*ABM, len(names))
	for i, name := range names {
		l := nsmTestLayout(16)
		l.Table().Name = name
		abms[i] = m.Attach(l, 2<<20)
	}
	floor := chunkFloorBytes(abms[0].layout) // 2 MiB

	// Park 6 MiB of reservations on table a; give b all the demand. With a
	// 7 MiB budget the floors alone take 6 MiB, so a's 4 MiB overage dwarfs
	// b's 1 MiB of headroom.
	abms[0].SetBufferBytes(6 << 20)
	for c := 0; c < 6; c++ {
		abms[0].beginLoad(LoadDecision{Chunk: c})
	}
	registerFullScan(abms[1], "bq")

	grants := m.Rebalance(7 << 20)
	if grants[0] != 6<<20 {
		t.Errorf("over-used table granted %d, want its usage %d", grants[0], int64(6<<20))
	}
	for i := 1; i < len(grants); i++ {
		if grants[i] < floor {
			t.Errorf("table %s granted %d, below the %d floor", names[i], grants[i], floor)
		}
	}
}

// Detaching a table frees its whole grant for the others on the next
// rebalance — the "budget rebalance on table close" path.
func TestLiveManagerRebalanceOnDetach(t *testing.T) {
	m, hot, _ := liveManagerPair(t)
	registerFullScan(hot, "hq")
	const total = 32 << 20
	if grants := m.Rebalance(total); len(grants) != 2 {
		t.Fatalf("grants = %v", grants)
	}
	if !m.Detach("cold") {
		t.Fatal("Detach(cold) = false")
	}
	if m.Detach("cold") {
		t.Error("second Detach(cold) = true")
	}
	if _, ok := m.For("cold"); ok {
		t.Error("detached table still resolves")
	}
	if got := m.Tables(); len(got) != 1 || got[0] != "hot" {
		t.Errorf("Tables = %v, want [hot]", got)
	}
	grants := m.Rebalance(total)
	if len(grants) != 1 || grants[0] != total {
		t.Errorf("grants after detach = %v, want the whole budget %d", grants, total)
	}
	if hot.BufferBytes() != total {
		t.Errorf("hot budget = %d, want %d", hot.BufferBytes(), total)
	}
}

// An under-provisioned budget parks every table at its two-chunk floor
// rather than granting zero to anyone.
func TestLiveManagerRebalanceUnderProvisioned(t *testing.T) {
	m, hot, _ := liveManagerPair(t)
	registerFullScan(hot, "hq")
	grants := m.Rebalance(3 << 20) // less than the ~4 MiB of floors
	floor := chunkFloorBytes(hot.layout)
	if grants[0] != floor || grants[1] != floor {
		t.Errorf("grants = %v, want both at the %d floor", grants, floor)
	}
}

// Two tables with the SAME number of starved streams but different
// outstanding bytes: the arbiter must weight by remaining bytes (§7.1's
// system-wide load), not stream arity — the table whose stream still has
// the whole relation ahead of it out-pulls the one nursing its last two
// chunks.
func TestLiveManagerRebalanceWeighsRemainingBytes(t *testing.T) {
	m, big, small := liveManagerPair(t)
	bq := registerFullScan(big, "bq") // 16 chunks remaining
	sq := small.NewQuery("sq", storage.NewRangeSet(storage.Range{Start: 0, End: 2}), 0)
	small.Register(sq) // 2 chunks remaining
	if !bq.starved || !sq.starved {
		t.Fatal("setup: both streams must be starved, so only their bytes differ")
	}
	if big.DemandBytes() <= small.DemandBytes() {
		t.Fatalf("DemandBytes: big %d must exceed small %d", big.DemandBytes(), small.DemandBytes())
	}

	const total = 32 << 20
	grants := m.Rebalance(total)
	if grants[0] <= grants[1] {
		t.Fatalf("grants = %v, want the byte-heavy table ahead of the near-done one", grants)
	}
	// The above-floor remainder splits in proportion to remaining bytes
	// (16 : 2), within integer rounding.
	floor := chunkFloorBytes(big.layout)
	rem := int64(total) - 2*floor
	wantBig := floor + rem*16/18
	if diff := grants[0] - wantBig; diff < -1024 || diff > 1024 {
		t.Errorf("big grant = %d, want ≈ %d (16/18 of the remainder)", grants[0], wantBig)
	}
}

// A starved stream doubles its remaining bytes in the demand weight.
func TestLiveABMDemandBytesStarvedDoubling(t *testing.T) {
	_, hot, _ := liveManagerPair(t)
	q := registerFullScan(hot, "hq")
	if !q.starved {
		t.Fatal("setup: fresh full scan must be starved")
	}
	chunk := layoutBytes(hot.layout) / int64(hot.layout.NumChunks())
	want := 2 * int64(hot.layout.NumChunks()) * chunk
	if got := hot.DemandBytes(); got != want {
		t.Errorf("DemandBytes = %d, want %d (remaining bytes doubled while starved)", got, want)
	}
}

// The arbiter re-runs when a table's demand weight flips between zero and
// non-zero or moves by at least an eighth of the weight it last ran with,
// in either direction, and not otherwise.
func TestRebalanceIfShiftedRule(t *testing.T) {
	const total = 32 << 20
	for _, tc := range []struct {
		name     string
		from, to int64
		rerun    bool
	}{
		{"unchanged", 800, 800, false},
		{"zero stays zero", 0, 0, false},
		{"flip to non-zero", 0, 1, true},
		{"flip to zero", 800, 0, true},
		{"up below an eighth", 800, 899, false},
		{"down below an eighth", 800, 701, false},
		{"up an eighth", 800, 900, true},
		{"down an eighth", 800, 700, true},
		{"up far", 800, 1 << 30, true},
		{"down far", 800, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, hot, _ := liveManagerPair(t)
			hot.demandBytes = tc.from
			if m.RebalanceIfShifted(total) == nil {
				t.Fatal("the first call after an attach did not run the arbiter")
			}
			if m.RebalanceIfShifted(total) != nil {
				t.Fatal("re-ran with no weight moved")
			}
			hot.demandBytes = tc.to
			if got := m.RebalanceIfShifted(total) != nil; got != tc.rerun {
				t.Errorf("weight %d -> %d: re-ran %v, want %v", tc.from, tc.to, got, tc.rerun)
			}
		})
	}
}

// Only a moved weight is stored, so drift below an eighth adds up to a
// re-run; an attach re-runs the arbiter and re-baselines every stored
// weight at the current demand.
func TestRebalanceIfShiftedRebaselinesOnAttach(t *testing.T) {
	const total = 32 << 20
	m, hot, _ := liveManagerPair(t)
	hot.demandBytes = 800
	m.RebalanceIfShifted(total)
	hot.demandBytes = 750
	if m.RebalanceIfShifted(total) != nil {
		t.Fatal("800 -> 750 re-ran")
	}
	hot.demandBytes = 700
	if m.RebalanceIfShifted(total) == nil {
		t.Fatal("800 -> 750 -> 700 did not add up to a re-run against the stored 800")
	}
	hot.demandBytes = 660
	if m.RebalanceIfShifted(total) != nil {
		t.Fatal("700 -> 660 re-ran")
	}
	third := nsmTestLayout(16)
	third.Table().Name = "third"
	m.Attach(third, 2<<20)
	grants := m.RebalanceIfShifted(total)
	if len(grants) != 3 {
		t.Fatalf("grants after attach = %v, want a re-run over three tables", grants)
	}
	// Stored at 660 now: 580 is less than an eighth below it (but more than
	// an eighth below the 700 stored before the attach), 577 is not.
	hot.demandBytes = 580
	if m.RebalanceIfShifted(total) != nil {
		t.Error("660 -> 580 re-ran: the attach did not re-baseline the stored weight")
	}
	hot.demandBytes = 577
	if m.RebalanceIfShifted(total) == nil {
		t.Error("660 -> 577 did not re-run")
	}
}

// RebalanceIfShifted runs on every scheduler pass of the live engine: when
// no weight moved it must not allocate.
func TestRebalanceIfShiftedAllocatesNothing(t *testing.T) {
	const total = 32 << 20
	m, hot, _ := liveManagerPair(t)
	registerFullScan(hot, "hq")
	m.RebalanceIfShifted(total)
	if allocs := testing.AllocsPerRun(100, func() {
		if m.RebalanceIfShifted(total) != nil {
			t.Fatal("re-ran with no weight moved")
		}
	}); allocs != 0 {
		t.Errorf("RebalanceIfShifted allocated %v times per call with no weight moved", allocs)
	}
}

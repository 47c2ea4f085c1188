package core

import (
	"slices"
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

// The arbiter splits the budget by footprint: above the two-chunk floors,
// each table's share of the remainder is its share of the bytes on disk.
// The streams registered on either table — none, a crowd of starved full
// scans on the smaller one, or uneven remaining work — change nothing.
func TestLiveManagerRebalanceByFootprint(t *testing.T) {
	const total = 32 << 20
	// Both tables have 1 MiB chunks, so the same two-chunk floor; the
	// remainder splits 24 : 8.
	floor := ChunkFloorBytes(nsmTestLayout(8))
	if floor != 2<<20 {
		t.Fatalf("floor of 1 MiB chunks = %d, want two chunks, %d", floor, 2<<20)
	}
	rem := total - 2*floor
	want := []int64{floor + rem*3/4, floor + rem/4}
	for _, tc := range []struct {
		name    string
		streams func(big, small *ABM)
	}{
		{"idle", func(big, small *ABM) {}},
		{"starved vs idle", func(big, small *ABM) {
			for i := 0; i < 4; i++ {
				if q := registerFullScan(small, "sq"); !q.starved {
					t.Fatal("a full scan with nothing resident is not starved")
				}
			}
		}},
		{"weighs remaining bytes", func(big, small *ABM) {
			big.Register(big.NewQuery("bq", storage.NewRangeSet(storage.Range{Start: 0, End: 2}), 0))
			registerFullScan(small, "sq")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewLiveManager(&liveClock{}, Config{Policy: Relevance})
			bl := nsmTestLayout(24)
			bl.Table().Name = "big"
			sl := nsmTestLayout(8)
			sl.Table().Name = "small"
			big, small := m.Attach(bl, 2<<20), m.Attach(sl, 2<<20)
			tc.streams(big, small)
			grants := m.Rebalance(total)
			if !slices.Equal(grants, want) {
				t.Errorf("grants = %v, want the footprint split %v", grants, want)
			}
			if big.BufferBytes() != grants[0] || small.BufferBytes() != grants[1] {
				t.Errorf("grants not applied: budgets (%d, %d) vs grants %v",
					big.BufferBytes(), small.BufferBytes(), grants)
			}
		})
	}
}

// A shrink never takes back bytes a table is still using: the grant clamps
// at the current usage and the overage is charged to the other table, so
// the granted total stays within the budget.
func TestLiveManagerRebalanceNeverShrinksBelowUsage(t *testing.T) {
	m, _, cold := liveManagerPair(t)
	// Park 8 MiB of usage on the cold table (reservations the arbiter must
	// respect although its footprint share is 6 MiB).
	cold.SetBufferBytes(8 << 20)
	for c := 0; c < 8; c++ {
		cold.beginLoad(LoadDecision{Chunk: c})
	}
	if got := cold.UsedBytes(); got != 8<<20 {
		t.Fatalf("cold usage = %d, want 8 MiB", got)
	}

	const total = 12 << 20
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
	// bytes to the other table.
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
	floor := ChunkFloorBytes(abms[0].layout) // 2 MiB

	// Park 6 MiB of reservations on table a. With a 7 MiB budget the floors
	// alone take 6 MiB, so a's overage of nearly 4 MiB dwarfs the 2/3 MiB of
	// headroom b and c hold between them.
	abms[0].SetBufferBytes(6 << 20)
	for c := 0; c < 6; c++ {
		abms[0].beginLoad(LoadDecision{Chunk: c})
	}

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
	floor := ChunkFloorBytes(hot.layout)
	if grants[0] != floor || grants[1] != floor {
		t.Errorf("grants = %v, want both at the %d floor", grants, floor)
	}
}

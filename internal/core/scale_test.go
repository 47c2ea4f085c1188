package core

import (
	"testing"

	"coopscan/internal/storage"
)

// A budget shrink while a query holds pins must not take the pinned bytes
// back by force: the budget re-targets immediately, FreeBytes goes
// negative, nothing resident is evicted out from under the scan (the
// pinned chunk and the fresh loads its interest protects all stay), new
// loads are refused, and the freed space only materialises as the scan
// consumes and releases chunks — at which point an eviction pass can walk
// the pool back under the shrunk budget. The incremental audit must hold at
// every step.
func TestLiveABMSetBufferBytesShrinkUnderPinnedLoad(t *testing.T) {
	m := NewLiveManager(&liveClock{}, Config{Policy: Relevance})
	a := m.Attach(nsmTestLayout(16), 8<<20)
	q := registerFullScan(a, "q")
	const chunk = 1 << 20
	for c := 0; c < 4; c++ {
		a.beginLoad(LoadDecision{Chunk: c})
		a.finishLoad(LoadDecision{Chunk: c}, nil)
	}
	pol := a.Policy()
	pinned := pol.PickAvailable(q)
	if pinned < 0 {
		t.Fatal("PickAvailable found nothing with 4 chunks resident")
	}
	a.Pin(q, pinned, nil)

	a.SetBufferBytes(2 << 20)
	if got := a.BufferBytes(); got != 2<<20 {
		t.Fatalf("BufferBytes = %d after shrink, want 2 MiB", got)
	}
	if free := a.FreeBytes(); free >= 0 {
		t.Fatalf("FreeBytes = %d after shrink below usage, want negative", free)
	}
	if used := a.UsedBytes(); used != 4*chunk {
		t.Fatalf("UsedBytes = %d after shrink, want untouched 4 MiB", used)
	}
	if err := a.AuditIncremental(); err != nil {
		t.Fatalf("audit after shrink: %v", err)
	}
	// Everything resident is either pinned or a fresh load a registered
	// query still needs, so a new load cannot steal space.
	if pol.EnsureSpace(chunk, q) {
		t.Fatal("EnsureSpace succeeded under a shrink with all parts protected")
	}
	if a.makeSpace(0, nil) {
		t.Fatal("an eviction pass fit the budget by evicting protected parts")
	}
	if used := a.UsedBytes(); used != 4*chunk {
		t.Fatalf("UsedBytes = %d after refused drain, want 4 MiB intact", used)
	}

	// Consume the resident chunks (the pinned one first, then the rest via
	// the normal PickAvailable→Pin→Release cycle). Consumption lifts both
	// protections, and the drain can then reach the shrunk budget.
	a.Release(q, pinned)
	for {
		c := pol.PickAvailable(q)
		if c < 0 {
			break
		}
		a.Pin(q, c, nil)
		a.Release(q, c)
	}
	if err := a.AuditIncremental(); err != nil {
		t.Fatalf("audit after consuming: %v", err)
	}
	if !a.makeSpace(0, nil) {
		t.Fatal("an eviction pass could not reach the budget with every pin released")
	}
	if free := a.FreeBytes(); free < 0 {
		t.Errorf("FreeBytes = %d after drain, want >= 0", free)
	}
	if used := a.UsedBytes(); used > 2<<20 {
		t.Errorf("UsedBytes = %d after drain, want <= the shrunk 2 MiB", used)
	}
	a.Finish(q)
	if err := a.AuditDrained(); err != nil {
		t.Errorf("drained audit: %v", err)
	}
}

// Rebalance with thousands of registered streams: the grants must still
// account exactly — every table at or above its floor, the sum within the
// budget (minus integer-rounding crumbs only), the grants applied — and
// the incremental audit must hold on every table with the full stream
// population registered. This is the arbiter half of the 4k-stream scale
// target: Rebalance reads only each table's layout and usage, so it stays
// O(tables) no matter how many streams are registered.
func TestLiveManagerRebalanceHighStreamCounts(t *testing.T) {
	const (
		tables          = 4
		streamsPerTable = 1000
		total           = int64(64 << 20)
	)
	m := NewLiveManager(&liveClock{}, Config{Policy: Relevance})
	abms := make([]*ABM, tables)
	for i := range abms {
		l := nsmTestLayout(16)
		l.Table().Name = string(rune('a' + i))
		abms[i] = m.Attach(l, 2<<20)
	}
	for _, a := range abms {
		for s := 0; s < streamsPerTable; s++ {
			start := s % 8
			end := start + 1 + s%8
			a.Register(a.NewQuery("q", storage.NewRangeSet(storage.Range{Start: start, End: end}), 0))
		}
	}

	grants := m.Rebalance(total)
	if len(grants) != tables {
		t.Fatalf("grants = %v, want %d entries", grants, tables)
	}
	floor := ChunkFloorBytes(abms[0].layout)
	var sum int64
	for i, g := range grants {
		if g < floor {
			t.Errorf("table %d granted %d, below the %d floor", i, g, floor)
		}
		if abms[i].BufferBytes() != g {
			t.Errorf("table %d grant %d not applied (budget %d)", i, g, abms[i].BufferBytes())
		}
		sum += g
	}
	if sum > total {
		t.Errorf("grants sum %d exceeds the budget %d", sum, total)
	}
	// Idle usage, so nothing clamps: the whole budget should be handed out
	// minus at most per-table integer-rounding crumbs.
	if slack := total - sum; slack > int64(tables)*1024 {
		t.Errorf("grants sum %d leaves %d unassigned, want < %d crumbs", sum, slack, tables*1024)
	}
	for i, a := range abms {
		if err := a.AuditIncremental(); err != nil {
			t.Errorf("table %d audit with %d streams: %v", i, streamsPerTable, err)
		}
	}

	// Put real usage on one table and rebalance again: the clamp path must
	// keep the sum within budget with the full population still registered.
	for c := 0; c < 2; c++ {
		abms[0].beginLoad(LoadDecision{Chunk: c})
		abms[0].finishLoad(LoadDecision{Chunk: c}, nil)
	}
	grants = m.Rebalance(total)
	sum = 0
	for _, g := range grants {
		sum += g
	}
	if sum > total {
		t.Errorf("grants sum %d exceeds the budget %d with usage clamped", sum, total)
	}
	if grants[0] < abms[0].UsedBytes() {
		t.Errorf("table 0 granted %d, below its usage %d", grants[0], abms[0].UsedBytes())
	}
}

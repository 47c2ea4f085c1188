package core

import (
	"testing"

	"coopscan/internal/storage"
)

// These tests drive the eviction corner paths of the relevance EnsureSpace: the
// guarded pass that protects starved queries' chunks, the relaxed pass that
// drops the usefulness guard once every query is blocked, and the
// last-resort pass that may evict even the trigger's own chunks.

// relevFixture builds a relevance fixture with the loader disabled, and
// returns the strategy for direct probing.
func relevFixture(t *testing.T, layout storage.Layout, bufChunks int) (*policyFixture, *relevStrategy) {
	t.Helper()
	f := newPolicyFixture(t, layout, Relevance, bufChunks)
	return f, f.abm.strat.(*relevStrategy)
}

func chunkSize(f *policyFixture) int64 { return f.abm.layout.ChunkBytes(0, 0) }

// TestMakeSpaceGuardedPassProtectsStarved: with an unblocked query in the
// system, the guarded pass must refuse to evict chunks useful to starved
// queries and report failure (the loader then waits instead of thrashing).
func TestMakeSpaceGuardedPassProtectsStarved(t *testing.T) {
	f, rs := relevFixture(t, nsmTestLayout(20), 2)
	trigger := f.register("trigger", rangeOf(0, 4), 0)
	hungry1 := f.register("hungry1", rangeOf(10, 16), 0)
	hungry2 := f.register("hungry2", rangeOf(16, 20), 0)
	// Fill the 2-chunk pool with one chunk of each starved query.
	f.load(t, 10, 0)
	f.load(t, 16, 0)
	if !hungry1.starved || !hungry2.starved {
		t.Fatal("setup: both pool-owning queries must be starved (1 < threshold 2)")
	}
	// hungry1 is not blocked: progress is still possible, so the eviction
	// must fail without touching the protected chunks.
	trigger.SetBlocked(true)
	hungry2.SetBlocked(true)
	if rs.EnsureSpace(chunkSize(f), trigger) {
		t.Fatal("guarded pass evicted chunks useful to starved queries")
	}
	if got := f.abm.Stats().Evictions; got != 0 {
		t.Fatalf("evictions = %d, want 0", got)
	}
}

// TestMakeSpaceRelaxedPassWhenAllBlocked: same pool state, but with every
// query blocked the relaxed pass may now evict the starved queries' chunks
// (avoiding the DSM-corner deadlock the paper's greedy approach misses) —
// while still sparing chunks the trigger itself needs.
func TestMakeSpaceRelaxedPassWhenAllBlocked(t *testing.T) {
	f, rs := relevFixture(t, nsmTestLayout(20), 2)
	trigger := f.register("trigger", rangeOf(0, 4), 0)
	hungry1 := f.register("hungry1", rangeOf(10, 16), 0)
	hungry2 := f.register("hungry2", rangeOf(16, 20), 0)
	f.load(t, 10, 0)
	f.load(t, 16, 0)
	trigger.SetBlocked(true)
	hungry1.SetBlocked(true)
	hungry2.SetBlocked(true)
	if !rs.EnsureSpace(chunkSize(f), trigger) {
		t.Fatal("relaxed pass failed to free space with every query blocked")
	}
	if got := f.abm.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want exactly 1 (one chunk frees one chunk)", got)
	}
}

// TestMakeSpaceLastResortEvictsTriggersOwnChunks: a pool filled entirely
// with the trigger's own (unpinned) partial chunks must not wedge the
// loader — the last-resort pass may evict them.
func TestMakeSpaceLastResortEvictsTriggersOwnChunks(t *testing.T) {
	f, rs := relevFixture(t, nsmTestLayout(20), 2)
	trigger := f.register("trigger", rangeOf(0, 10), 0)
	f.load(t, 0, 0)
	f.load(t, 1, 0)
	trigger.SetBlocked(true)
	if !rs.EnsureSpace(chunkSize(f), trigger) {
		t.Fatal("last-resort pass failed: loader would wedge on its own chunks")
	}
	if got := f.abm.Stats().Evictions; got == 0 {
		t.Fatal("no evictions recorded")
	}
}

// TestMakeSpaceLastResortSparesPinnedParts: pinned parts must survive even
// the last-resort pass; with the whole pool pinned, eviction reports
// failure rather than panicking or freeing pinned space.
func TestMakeSpaceLastResortSparesPinnedParts(t *testing.T) {
	f, rs := relevFixture(t, nsmTestLayout(20), 2)
	trigger := f.register("trigger", rangeOf(0, 10), 0)
	f.load(t, 0, 0)
	f.load(t, 1, 0)
	f.abm.cache.pin(partKey{chunk: 0, col: -1}, 0, nil)
	f.abm.cache.pin(partKey{chunk: 1, col: -1}, 0, nil)
	trigger.SetBlocked(true)
	if rs.EnsureSpace(chunkSize(f), trigger) {
		t.Fatal("eviction claimed success with the whole pool pinned")
	}
	if got := f.abm.Stats().Evictions; got != 0 {
		t.Fatalf("evictions = %d, want 0", got)
	}
}

// TestMakeSpaceDSMUselessColumnsGoFirst: in DSM, the first pass evicts
// column parts no interested query reads before any guarded scoring runs.
func TestMakeSpaceDSMUselessColumnsGoFirst(t *testing.T) {
	layout := dsmTestLayout(10, 4)
	f := newPolicyFixture(t, layout, Relevance, 4)
	rs := f.abm.strat.(*relevStrategy)
	f.register("q", rangeOf(0, 6), storage.Cols(0, 1))
	// Chunk 2 resident with a column (3) no query reads.
	f.load(t, 2, storage.Cols(0, 1, 3))
	trigger := f.register("trigger", rangeOf(6, 10), storage.Cols(0, 1))
	trigger.SetBlocked(true)
	uselessKey := partKey{chunk: 2, col: 3}
	if f.abm.cache.state(uselessKey) != partLoaded {
		t.Fatal("setup: useless column part not resident")
	}
	// Demand just past the current free space, so freeing the useless part
	// suffices and nothing useful needs to go.
	if !rs.EnsureSpace(f.abm.cache.free()+1, trigger) {
		t.Fatal("DSM first pass failed to free space")
	}
	if f.abm.cache.state(uselessKey) != partAbsent {
		t.Fatal("useless column part survived the first eviction pass")
	}
	for _, k := range []partKey{{chunk: 2, col: 0}, {chunk: 2, col: 1}} {
		if f.abm.cache.state(k) != partLoaded {
			t.Fatalf("useful part %v was evicted by the first pass", k)
		}
	}
}

// TestMakeSpaceEvictionKeepsCountersConsistent: the eviction passes go
// through the same availability bookkeeping as everything else — after
// evicting a starved query's chunk, the maintained state must still match
// a recomputation.
func TestMakeSpaceEvictionKeepsCountersConsistent(t *testing.T) {
	f, rs := relevFixture(t, nsmTestLayout(20), 3)
	trigger := f.register("trigger", rangeOf(0, 4), 0)
	rich := f.register("rich", rangeOf(10, 16), 0)
	f.load(t, 10, 0)
	f.load(t, 11, 0)
	f.load(t, 12, 0)
	if rich.starved || rich.almostStarved {
		t.Fatalf("setup: rich avail=%d, want 3 (neither starved nor almost-starved)", rich.available())
	}
	if !rs.EnsureSpace(chunkSize(f), trigger) {
		t.Fatal("eviction failed")
	}
	auditIncrementalState(t, f.abm, "after eviction")
	if rich.available() != 2 {
		t.Fatalf("rich availability = %d after one eviction, want 2", rich.available())
	}
	// avail 2 against threshold 2: not starved, but almost-starved again —
	// the flip must have been folded into the per-chunk counters (checked by
	// the audit above) and the flags must agree.
	if rich.starved || !rich.almostStarved {
		t.Fatalf("rich flags starved=%v almost=%v after eviction, want false/true",
			rich.starved, rich.almostStarved)
	}
}

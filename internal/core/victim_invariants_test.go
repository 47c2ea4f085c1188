package core

import (
	"fmt"
	"math/rand"
	"testing"

	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// These tests cross-check the heap/index-based victim and score selection
// against the pre-heap linear-scan reference, on arbitrary event sequences
// (register, load, consume, pin/unpin, evict, unregister) over both
// layouts. The reference implementations below are verbatim ports of the
// O(pool)-per-victim and O(queries)-per-chunk code the heaps replaced; any
// divergence between the two is a bug in the incremental structures.

// referenceVictim is the old makeSpace selection: the minimum-score
// evictable part over a full pool scan, with the (chunk, col) tie-break.
func referenceVictim(a *ABM, keep func(*part) bool, score func(*part) float64) *part {
	var victim *part
	var best float64
	for _, p := range a.cache.loadedParts() {
		if !evictable(p) || a.assemblingPart(p.key) || a.freshUnpinned(p.key.chunk) ||
			(keep != nil && keep(p)) {
			continue
		}
		s := score(p)
		if victim == nil || s < best ||
			(s == best && (p.key.chunk < victim.key.chunk ||
				(p.key.chunk == victim.key.chunk && p.key.col < victim.key.col))) {
			victim, best = p, s
		}
	}
	return victim
}

// refLRUScore is the old lruScore.
func refLRUScore(p *part) float64 { return p.lastTouch }

// heapVictim selects the next victim the way the eviction passes do — pop
// the maintained heap in order, set aside what the pass must not evict —
// and pushes everything back, so the live state is untouched (a heap's pop
// order does not depend on its layout).
func heapVictim[O heapOrder[*part]](a *ABM, h *indexedHeap[*part, O], keep func(*part) bool) *part {
	var popped []*part
	var victim *part
	for victim == nil {
		p, ok := h.pop()
		if !ok {
			break
		}
		popped = append(popped, p)
		if !a.blockedFromEviction(p) && (keep == nil || !keep(p)) {
			victim = p
		}
	}
	for _, p := range popped {
		h.push(p)
	}
	return victim
}

// refQueryScan ports the old O(queries) DSM relevance terms.
func refStarvedOverlap(a *ABM, c int, cols storage.ColSet) (int, storage.ColSet) {
	n, union := 0, storage.ColSet(0)
	for _, q := range a.queries {
		if q.starved && q.needs(c) && q.Cols.Overlaps(cols) {
			n++
			union = union.Union(q.Cols)
		}
	}
	return n, union
}

func refAlmostNeeding(a *ABM, c int) (int, storage.ColSet) {
	n, union := 0, storage.ColSet(0)
	for _, q := range a.queries {
		if q.needs(c) && q.almostStarved {
			n++
			union = union.Union(q.Cols)
		}
	}
	return n, union
}

func refInterestedOverlap(a *ABM, c int, cols storage.ColSet) int {
	n := 0
	for _, q := range a.queries {
		if q.needs(c) && q.Cols.Overlaps(cols) {
			n++
		}
	}
	return n
}

func refColUseless(a *ABM, k partKey) bool {
	for _, q := range a.queries {
		if q.needs(k.chunk) && (k.col < 0 || q.Cols.Has(k.col)) {
			return false
		}
	}
	return true
}

// auditVictimSelection compares every selection structure against its
// linear reference at the current instant.
func auditVictimSelection(t *testing.T, a *ABM, when string) {
	t.Helper()
	// LRU class, with and without an (arbitrary but deterministic) keep
	// predicate, the shape the elevator's outstanding-chunk guard has.
	for _, keep := range []func(*part) bool{
		nil,
		func(p *part) bool { return p.key.chunk%3 == 0 },
	} {
		want := referenceVictim(a, keep, refLRUScore)
		got := heapVictim(a, &a.cache.lru, keep)
		if want != got {
			t.Fatalf("%s: LRU victim = %v, reference %v", when, keyOf(got), keyOf(want))
		}
	}
	// Relevance class: the victim heap's pop order under each pass's guard
	// (guarded, relaxed, last-resort) against every registered trigger. An
	// eviction round starts with flushVicDirty, which brings every frozen
	// score up to the live keepRelevanceScore the reference minimises.
	rs, ok := a.strat.(*relevStrategy)
	if !ok {
		return
	}
	rs.flushVicDirty()
	for _, trigger := range a.queries {
		guards := []func(*part) bool{
			func(p *part) bool {
				return trigger.needs(p.key.chunk) || a.starvedInterest[p.key.chunk] > 0
			},
			func(p *part) bool { return trigger.needs(p.key.chunk) },
			nil,
		}
		for pass, keep := range guards {
			want := referenceVictim(a, keep, rs.keepRelevanceScore)
			got := heapVictim(a, &rs.victims, keep)
			if want != got {
				t.Fatalf("%s: keepRelevance victim (trigger %s, pass %d) = %v, reference %v",
					when, trigger.Name, pass, keyOf(got), keyOf(want))
			}
		}
	}
}

// auditGroupReads compares the column-group derived reads against the old
// query loops for every chunk and a few column sets.
func auditGroupReads(t *testing.T, a *ABM, when string) {
	t.Helper()
	if !a.layout.Columnar() {
		return
	}
	rs, isRelev := a.strat.(*relevStrategy)
	probes := []storage.ColSet{storage.Cols(0), storage.Cols(0, 1), storage.Cols(1, 2, 3)}
	for _, q := range a.queries {
		probes = append(probes, q.Cols)
	}
	for c := 0; c < a.layout.NumChunks(); c++ {
		for _, cols := range probes {
			gn, gu := a.starvedOverlap(c, cols)
			wn, wu := refStarvedOverlap(a, c, cols)
			if gn != wn || gu != wu {
				t.Fatalf("%s: starvedOverlap(%d, %v) = (%d, %v), reference (%d, %v)", when, c, cols, gn, gu, wn, wu)
			}
			if got, want := a.interestedOverlap(c, cols), refInterestedOverlap(a, c, cols); got != want {
				t.Fatalf("%s: interestedOverlap(%d, %v) = %d, reference %d", when, c, cols, got, want)
			}
		}
		gn, gu := a.almostNeeding(c)
		wn, wu := refAlmostNeeding(a, c)
		if gn != wn || gu != wu {
			t.Fatalf("%s: almostNeeding(%d) = (%d, %v), reference (%d, %v)", when, c, gn, gu, wn, wu)
		}
		if isRelev {
			for col := 0; col < a.layout.Table().NumColumns(); col++ {
				k := partKey{chunk: c, col: col}
				if got, want := rs.colUseless(k), refColUseless(a, k); got != want {
					t.Fatalf("%s: colUseless(%v) = %v, reference %v", when, k, got, want)
				}
			}
		}
	}
}

func keyOf(p *part) interface{} {
	if p == nil {
		return "<none>"
	}
	return p.key
}

// TestVictimSelectionMatchesLinearReference drives arbitrary event
// sequences through NSM and DSM relevance fixtures, cross-checking every
// selection structure (LRU heap, victim heap, column-group reads,
// incremental counters) against the linear-scan reference after every
// event.
func TestVictimSelectionMatchesLinearReference(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		t.Run(fmt.Sprintf("columnar=%v", columnar), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				runVictimCrossCheck(t, columnar, seed)
			}
		})
	}
}

func runVictimCrossCheck(t *testing.T, columnar bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	numChunks := 8 + rng.Intn(24)
	var layout storage.Layout
	numCols := 4
	if columnar {
		layout = dsmTestLayout(numChunks, numCols)
	} else {
		layout = nsmTestLayout(numChunks)
	}
	env := sim.NewEnv()
	d := disk.New(env, disk.Params{Bandwidth: 50 << 20, SeekTime: 1e-3})
	var buf int64
	if columnar {
		buf = layout.ChunkBytes(0, storage.AllCols(numCols)) * int64(3+rng.Intn(5))
	} else {
		buf = layout.ChunkBytes(0, 0) * int64(3+rng.Intn(numChunks/2+1))
	}
	a := newSim(env, d, layout, Config{Policy: Relevance, BufferBytes: buf})
	rs := a.strat.(*relevStrategy)

	randCols := func() storage.ColSet {
		if !columnar {
			return 0
		}
		cols := storage.Cols(rng.Intn(numCols))
		for rng.Intn(2) == 0 {
			cols = cols.Add(rng.Intn(numCols))
		}
		return cols
	}

	var queries []*Query
	var pinned []partKey
	step := 0
	audit := func() {
		when := fmt.Sprintf("columnar=%v seed=%d step=%d", columnar, seed, step)
		auditIncrementalState(t, a, when)
		auditVictimSelection(t, a, when)
		auditGroupReads(t, a, when)
	}

	env.Process("events", func(p *sim.Proc) {
		for step = 0; step < 120 && !t.Failed(); step++ {
			switch op := rng.Intn(10); {
			case op < 3: // register
				s := rng.Intn(numChunks)
				e := s + 1 + rng.Intn(numChunks-s)
				q := a.NewQuery(fmt.Sprintf("q%d", step),
					storage.NewRangeSet(storage.Range{Start: s, End: e}), randCols())
				a.Register(q)
				queries = append(queries, q)
			case op < 6: // load a random chunk for random columns
				c := rng.Intn(numChunks)
				cols := a.colsOrNSM(randCols())
				if a.cache.absentBits(cols, c) == 0 {
					continue
				}
				need := a.coldBytesFor(c, cols)
				if a.cache.free() < need && !a.makeSpace(need, nil) {
					continue
				}
				a.loadParts(p, c, cols, nil)
			case op < 8: // consume an available chunk of a random query
				if len(queries) == 0 {
					continue
				}
				q := queries[rng.Intn(len(queries))]
				c := rs.PickAvailable(q)
				if c < 0 {
					continue
				}
				a.Pin(q, c, nil)
				a.Release(q, c)
				if q.finished() {
					a.unregister(q)
					queries = removeQuery(queries, q)
				}
			case op < 9: // pin or unpin a random loaded part
				if len(pinned) > 0 && rng.Intn(2) == 0 {
					k := pinned[len(pinned)-1]
					pinned = pinned[:len(pinned)-1]
					a.cache.unpin(k, a.clock.Now())
					continue
				}
				lp := a.cache.loadedParts()
				if len(lp) == 0 {
					continue
				}
				pt := lp[rng.Intn(len(lp))]
				if pt.state != partLoaded {
					continue
				}
				a.cache.pin(pt.key, a.clock.Now(), nil)
				pinned = append(pinned, pt.key)
			default: // evict through the real EnsureSpace
				if len(queries) == 0 || a.cache.used() == 0 {
					continue
				}
				trigger := queries[rng.Intn(len(queries))]
				blocked := rng.Intn(2) == 0
				for _, q := range queries {
					q.SetBlocked(blocked)
				}
				rs.EnsureSpace(a.cache.used()/2+1, trigger)
			}
			audit()
		}
	})
	if err := env.Run(0); err != nil {
		t.Fatalf("columnar=%v seed=%d: %v", columnar, seed, err)
	}
}

func removeQuery(qs []*Query, q *Query) []*Query {
	for i, o := range qs {
		if o == q {
			return append(qs[:i], qs[i+1:]...)
		}
	}
	return qs
}

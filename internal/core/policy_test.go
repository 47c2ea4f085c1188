package core

import (
	"testing"

	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// policyFixture assembles an ABM without running the simulation, so the
// relevance functions can be probed directly.
type policyFixture struct {
	env *sim.Env
	abm *ABM
}

func newPolicyFixture(t *testing.T, layout storage.Layout, policy Policy, bufChunks int) *policyFixture {
	t.Helper()
	env := sim.NewEnv()
	d := disk.New(env, disk.Params{Bandwidth: 10 << 20, SeekTime: 1e-3})
	var buf int64
	if layout.Columnar() {
		buf = layout.ChunkBytes(0, storage.AllCols(layout.Table().NumColumns())) * int64(bufChunks)
	} else {
		buf = layout.ChunkBytes(0, 0) * int64(bufChunks)
	}
	return &policyFixture{env: env, abm: newSim(env, d, layout, Config{Policy: policy, BufferBytes: buf})}
}

// load force-loads chunk parts synchronously (zero-size reads would distort
// stats; a tiny helper process performs the load at t=0).
func (f *policyFixture) load(t *testing.T, c int, cols storage.ColSet) {
	t.Helper()
	f.env.Process("load", func(p *sim.Proc) {
		need := f.abm.coldBytesFor(c, cols)
		if f.abm.cache.free() < need && !f.abm.makeSpace(need, nil) {
			t.Fatalf("no space to load chunk %d", c)
		}
		f.abm.loadParts(p, c, cols, nil)
	})
	if err := f.env.Run(0); err != nil {
		t.Fatal(err)
	}
}

func (f *policyFixture) register(name string, ranges storage.RangeSet, cols storage.ColSet) *Query {
	q := f.abm.NewQuery(name, ranges, cols)
	f.abm.Register(q)
	return q
}

func rangeOf(s, e int) storage.RangeSet {
	return storage.NewRangeSet(storage.Range{Start: s, End: e})
}

func TestNSMLoadRelevancePrefersSharedChunks(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(20), Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)
	// q1 and q2 overlap on [5,10); q1 also needs [0,5) alone.
	q1 := f.register("q1", rangeOf(0, 10), 0)
	f.register("q2", rangeOf(5, 10), 0)
	shared, _ := rs.loadRelevance(7, q1) // needed by both (both starved)
	solo, _ := rs.loadRelevance(2, q1)   // needed by q1 only
	if shared <= solo {
		t.Errorf("loadRelevance: shared chunk %v should beat solo %v", shared, solo)
	}
	// chooseChunkToLoad must therefore pick from the overlap first.
	c, _, ok := rs.chooseChunkToLoad(q1)
	if !ok || c < 5 || c >= 10 {
		t.Errorf("chooseChunkToLoad = %d, want one of [5,10)", c)
	}
}

func TestNSMUseRelevancePrefersLeastShared(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(20), Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)
	q1 := f.register("q1", rangeOf(0, 10), 0)
	f.register("q2", rangeOf(5, 10), 0)
	f.load(t, 2, 0) // interesting to q1 only
	f.load(t, 7, 0) // interesting to both
	if got := rs.PickAvailable(q1); got != 2 {
		t.Errorf("PickAvailable = %d, want 2 (fewest interested queries)", got)
	}
	// After q1 consumes chunk 2, only the shared one remains.
	q1.markConsumed(2)
	f.abm.dropNeed(q1, 2)
	if got := rs.PickAvailable(q1); got != 7 {
		t.Errorf("PickAvailable = %d, want 7", got)
	}
}

func TestQueryRelevanceOrdersByRemainingAndWait(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(40), Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)
	short := f.register("short", rangeOf(0, 3), 0)
	long := f.register("long", rangeOf(0, 40), 0)
	if rs.queryRelevance(short) <= rs.queryRelevance(long) {
		t.Error("short query should outrank long one")
	}
	// Aging: a long-waiting long query eventually overtakes a fresh short
	// one. Simulate by backdating its last service far into the past.
	long.lastService = -1e6
	if rs.queryRelevance(long) <= rs.queryRelevance(short) {
		t.Error("wait promotion should eventually favour the long query")
	}
}

func TestStarvationThresholdSemantics(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(20), Relevance, 8)
	q := f.register("q", rangeOf(0, 10), 0)
	if !f.abm.starved(q) || !f.abm.almostStarved(q) {
		t.Error("query with nothing available must be starved")
	}
	f.load(t, 0, 0)
	if !f.abm.starved(q) {
		t.Error("one available chunk is still starved (threshold 2)")
	}
	f.load(t, 1, 0)
	if f.abm.starved(q) {
		t.Error("two available chunks is not starved")
	}
	if !f.abm.almostStarved(q) {
		t.Error("two available chunks is still almost-starved")
	}
	f.load(t, 2, 0)
	if f.abm.almostStarved(q) {
		t.Error("three available chunks is not almost-starved")
	}
}

func TestNSMKeepRelevanceProtectsAlmostStarved(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(20), Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)
	f.register("hungry", rangeOf(0, 10), 0) // starved: nothing loaded for it yet
	f.register("rich", rangeOf(10, 20), 0)
	// Load chunks so "rich" has plenty available and "hungry" just one.
	f.load(t, 0, 0)
	for c := 10; c < 16; c++ {
		f.load(t, c, 0)
	}
	hungryChunk := f.abm.cache.parts[partKey{chunk: 0, col: -1}]
	richChunk := f.abm.cache.parts[partKey{chunk: 12, col: -1}]
	if rs.keepRelevanceScore(hungryChunk) <= rs.keepRelevanceScore(richChunk) {
		t.Error("chunk of an almost-starved query must score higher (be kept)")
	}
}

func TestAttachPicksLargestRemainingOverlap(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(40), Attach, 8)
	a := f.register("a", rangeOf(0, 40), 0)
	a.cursor = 20 // mid-scan
	b := f.register("b", rangeOf(30, 36), 0)
	b.cursor = 31
	// A new full scan overlaps "a" by 20 remaining chunks and "b" by 5:
	// it must attach at a's position.
	c := f.register("c", rangeOf(0, 40), 0)
	if c.cursor != 20 {
		t.Errorf("attached at %d, want 20 (largest remaining overlap)", c.cursor)
	}
	if c.attachPoint != 20 {
		t.Errorf("attachPoint = %d", c.attachPoint)
	}
	// A scan with no overlap starts at its own beginning.
	d := f.register("d", rangeOf(38, 40), 0)
	if d.cursor != 38 {
		t.Errorf("no-overlap scan attached at %d", d.cursor)
	}
}

func TestAttachWrapsToSkippedPrefix(t *testing.T) {
	q := &Query{needed: make([]bool, 10), cursor: 6}
	for c := 2; c < 9; c++ {
		q.needed[c] = true
		q.neededCount++
	}
	var order []int
	for {
		c, ok := nextFrom(q, q.cursor)
		if !ok {
			break
		}
		order = append(order, c)
		q.markConsumed(c)
		q.cursor = c + 1
	}
	want := []int{6, 7, 8, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestElevatorWaitSetRetiresChunks(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(10), Elevator, 6)
	es := f.abm.strat.(*elevStrategy)
	q1 := f.register("q1", rangeOf(0, 4), 0)
	q2 := f.register("q2", rangeOf(0, 4), 0)
	entry := &elevEntry{chunk: 1, waiting: []*Query{q1, q2}}
	es.outstanding = append(es.outstanding, entry)
	if !es.outstandingChunk(1) || es.outstandingChunk(2) {
		t.Error("outstandingChunk wrong")
	}
	es.Consumed(q1, 1)
	if len(es.outstanding) != 1 || len(entry.waiting) != 1 {
		t.Error("first consumption should not retire the chunk")
	}
	es.Consumed(q2, 1)
	if len(es.outstanding) != 0 {
		t.Error("chunk should retire once all waiters consumed")
	}
	// Unregister drops a query from every wait set.
	entry2 := &elevEntry{chunk: 2, waiting: []*Query{q1, q2}}
	es.outstanding = append(es.outstanding, entry2)
	es.Unregister(q1)
	if len(entry2.waiting) != 1 || entry2.waiting[0] != q2 {
		t.Errorf("unregister left waiting = %v", entry2.waiting)
	}
}

func TestDSMUseRelevancePerByteAndOverlap(t *testing.T) {
	layout := dsmTestLayout(10, 4)
	f := newPolicyFixture(t, layout, Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)
	// q reads the wide col 0 (8B) and narrow col 1 (1B).
	q := f.register("q", rangeOf(0, 6), storage.Cols(0, 1))
	f.register("crowd1", rangeOf(0, 3), storage.Cols(0))
	f.register("crowd2", rangeOf(0, 3), storage.Cols(0))
	f.load(t, 0, storage.Cols(0, 1)) // interesting to q + both crowds
	f.load(t, 4, storage.Cols(0, 1)) // interesting to q alone
	// Same cached footprint, fewer interested queries: chunk 4 wins.
	if got := rs.PickAvailable(q); got != 4 {
		t.Errorf("PickAvailable = %d, want 4 (buffer bytes per interested query)", got)
	}
}

func TestDSMLoadRelevanceUnionsColumnsOfStarvedOverlap(t *testing.T) {
	layout := dsmTestLayout(10, 6)
	f := newPolicyFixture(t, layout, Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)
	q1 := f.register("q1", rangeOf(0, 5), storage.Cols(0, 1))
	f.register("q2", rangeOf(0, 5), storage.Cols(1, 2)) // overlaps q1 on col 1
	f.register("q3", rangeOf(0, 5), storage.Cols(4, 5)) // disjoint columns
	_, cols := rs.loadRelevance(2, q1)
	if !cols.Has(0) || !cols.Has(1) || !cols.Has(2) {
		t.Errorf("load columns = %v, want union of overlapping starved queries {0,1,2}", cols)
	}
	if cols.Has(4) || cols.Has(5) {
		t.Errorf("load columns = %v include the non-overlapping query's columns", cols)
	}
}

func TestDSMColUselessDetection(t *testing.T) {
	layout := dsmTestLayout(10, 4)
	f := newPolicyFixture(t, layout, Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)
	f.register("q", rangeOf(0, 5), storage.Cols(0, 1))
	if rs.colUseless(partKey{chunk: 2, col: 0}) {
		t.Error("column 0 of a needed chunk is useful")
	}
	if !rs.colUseless(partKey{chunk: 2, col: 3}) {
		t.Error("column 3 is used by no query")
	}
	if !rs.colUseless(partKey{chunk: 8, col: 0}) {
		t.Error("chunk 8 is needed by no query")
	}
}

func TestSmallestColumnLoadsFirst(t *testing.T) {
	layout := dsmTestLayout(6, 4)
	b := newBufcache(layout, 1<<30)
	keys := b.partsInto(nil, storage.Cols(0, 1, 2, 3), 2)
	sortPartsBySize(b, keys)
	for i := 1; i < len(keys); i++ {
		if b.extentOf(keys[i-1]).Size > b.extentOf(keys[i]).Size {
			t.Fatalf("parts not size-ordered: %v", keys)
		}
	}
	// Narrow columns (odd indices in the fixture) must come first.
	if keys[0].col%2 != 1 {
		t.Errorf("first loaded column = %d, want a narrow one", keys[0].col)
	}
}

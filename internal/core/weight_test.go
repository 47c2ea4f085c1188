package core

import "testing"

// TestWeightBiasesQueryRelevance: at equal remaining work and service time, a
// higher-weight query must outrank a weight-1 one, and the weighted relevance
// must still respect the short-query term (a weight-4 query with 40 chunks
// left ranks like an unweighted 10-chunk one).
func TestWeightBiasesQueryRelevance(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(40), Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)

	batch := f.abm.NewQuery("batch", rangeOf(0, 40), 0)
	inter := f.abm.NewQuery("inter", rangeOf(0, 40), 0)
	inter.SetWeight(4)
	f.abm.Register(batch)
	f.abm.Register(inter)
	// Equalise the wait term so only the weighted remaining term differs.
	batch.lastService = 0
	inter.lastService = 0

	if rs.queryRelevance(inter) <= rs.queryRelevance(batch) {
		t.Errorf("weight-4 query relevance %v should beat weight-1 %v",
			rs.queryRelevance(inter), rs.queryRelevance(batch))
	}

	// weight-4 over 40 chunks == weight-1 over 10 chunks, exactly.
	short := f.abm.NewQuery("short", rangeOf(0, 10), 0)
	f.abm.Register(short)
	short.lastService = 0
	if got, want := rs.queryRelevance(inter), rs.queryRelevance(short); got != want {
		t.Errorf("weighted relevance %v, want %v (remaining/weight identity)", got, want)
	}
}

// TestWeightDefaultIsIdentity: NewQuery's default weight must reproduce the
// unweighted formula bit-for-bit — the sim decision golden depends on it.
func TestWeightDefaultIsIdentity(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(20), Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)
	q := f.register("q", rangeOf(0, 17), 0)
	if q.Weight() != 1 {
		t.Fatalf("default weight = %v, want 1", q.Weight())
	}
	want := 0.0
	want -= float64(q.remaining()) // unweighted paper term
	want += (f.abm.clock.Now() - q.lastService) / f.abm.chunkCost / float64(len(f.abm.queries))
	if got := rs.queryRelevance(q); got != want {
		t.Errorf("weight-1 relevance %v, want unweighted %v (must be identical)", got, want)
	}
}

// TestWeightSetterGuards: SetWeight must reject non-positive weights and
// post-registration changes (the candidate heap is keyed at Register).
func TestWeightSetterGuards(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(20), Relevance, 8)
	q := f.abm.NewQuery("q", rangeOf(0, 10), 0)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero weight", func() { q.SetWeight(0) })
	mustPanic("negative weight", func() { q.SetWeight(-1) })
	f.abm.Register(q)
	mustPanic("after Register", func() { q.SetWeight(2) })
}

// TestWeightCandidateHeap: the candidate heap's argmin must agree with a
// linear scan of the weighted queryRelevance, and the incremental audit must
// stay clean while weighted and unweighted queries mix. The weighted key
// stays a time-free transform because the weight divides only the remaining
// term.
func TestWeightCandidateHeap(t *testing.T) {
	f := newPolicyFixture(t, nsmTestLayout(64), Relevance, 8)
	rs := f.abm.strat.(*relevStrategy)

	weights := []float64{1, 4, 1, 8, 2, 1}
	for i, w := range weights {
		q := f.abm.NewQuery(names[i], rangeOf(i, 40+i*4), 0)
		if w != 1 {
			q.SetWeight(w)
		}
		f.abm.Register(q)
	}
	if err := f.abm.AuditIncremental(); err != nil {
		t.Fatalf("audit with mixed weights: %v", err)
	}

	// The popped candidate must be the linear-scan argmax of the weighted
	// relevance (ties by seq), exactly what nextLoad relies on.
	d, ok := rs.nextLoad()
	if !ok {
		t.Fatal("nextLoad found no candidate")
	}
	best := bestByLinearScan(rs)
	if d.Query != best {
		t.Errorf("nextLoad picked %s, linear weighted scan picks %s", d.Query.Name, best.Name)
	}
	// The highest weight/remaining ratio wins here: q3 (weight 8).
	if d.Query.Name != "q3" {
		t.Errorf("nextLoad picked %s, want q3 (weight 8)", d.Query.Name)
	}
	if err := f.abm.AuditIncremental(); err != nil {
		t.Fatalf("audit after weighted decision: %v", err)
	}
}

var names = []string{"q0", "q1", "q2", "q3", "q4", "q5"}

func bestByLinearScan(rs *relevStrategy) *Query {
	var best *Query
	bestRel := 0.0
	for _, q := range rs.a.queries {
		rel := rs.queryRelevance(q)
		if best == nil || rel > bestRel || (rel == bestRel && q.seq < best.seq) {
			best, bestRel = q, rel
		}
	}
	return best
}

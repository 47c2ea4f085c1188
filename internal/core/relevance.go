package core

import (
	"math/bits"
	"time"

	"coopscan/internal/storage"
)

// qMax is the paper's Qmax constant: an upper bound on concurrent queries
// used to lexicographically combine relevance terms.
const qMax = 1024.0

// relevStrategy implements the relevance policy (§4 Figure 3 for NSM,
// §6.2 Figure 11 for DSM). A central ABM loader process repeatedly picks the
// highest-priority starved query (queryRelevance), the most valuable chunk
// to load for it (loadRelevance), and victims to evict (keepRelevance);
// the CScan side picks which available chunk to consume (useRelevance).
//
// All starvation and interest state is maintained incrementally by the ABM
// (see the package comment); the strategy reads Query.starved/almostStarved
// flags and the interest index (chunkQueries and the column groups) instead
// of rescanning the pool or the query registry.
type relevStrategy struct {
	a *ABM

	// evictScratch snapshots the loaded parts for the DSM useless-column
	// pass, which evicts while it walks.
	evictScratch []*part

	// victims holds every loaded part, min-ordered by (vicScore, chunk,
	// col). Scores are re-keyed lazily — the ABM marks chunks dirty at the
	// O(1) sites that change their counters or residency, and flushVicDirty
	// re-keys just those chunks' parts at the start of an eviction round —
	// so a round costs O(changed + evicted × log pool) instead of a full
	// pool walk. vicE and vicCols hold the per-chunk frozen DSM terms
	// (almost-starved count and column union) between flushes. The aside
	// slices park entries a pass must not evict; every parked entry is
	// re-pushed before EnsureSpace returns, so the heap is complete between
	// rounds.
	victims   indexedHeap[*part, vicOrder]
	vicE      []float64
	vicCols   []storage.ColSet
	vicAsideB []*part
	vicUseful []*part
	vicTrig   []*part
}

func (s *relevStrategy) Register(q *Query)    {}
func (s *relevStrategy) Unregister(q *Query)  {}
func (s *relevStrategy) Consumed(*Query, int) {}

// commitLoad is a no-op: relevance keeps no per-load bookkeeping beyond
// what the cache state transitions already record.
func (s *relevStrategy) commitLoad(LoadDecision) {}
func (s *relevStrategy) dropLoad(LoadDecision)   {}

// ---- CScan side -----------------------------------------------------------

// PickAvailable returns the resident needed chunk with the highest
// useRelevance, or -1 if none is available. Candidates come straight from
// the query's maintained availability heap; the winner (max score, lowest
// chunk on ties) is independent of its layout.
func (s *relevStrategy) PickAvailable(q *Query) int {
	a := s.a
	var start time.Duration
	if a.cfg.MeasureScheduling {
		start = a.schedStart()
	}
	best := -1
	if !a.layout.Columnar() {
		// NSM useRelevance is qMax - interested(c): maximising it is
		// minimising the interest count, so the loop stays in integers.
		bestCount := 0
		for _, c := range q.avail.items {
			if !q.needed[c] {
				continue // defensive: availability normally retires via Release
			}
			n := len(a.chunkQueries[c])
			if best < 0 || n < bestCount || (n == bestCount && c < best) {
				best, bestCount = c, n
			}
		}
	} else {
		bestScore := 0.0
		for _, c := range q.avail.items {
			if !q.needed[c] {
				continue
			}
			score := s.useRelevance(c, q)
			if best < 0 || score > bestScore || (score == bestScore && c < best) {
				best, bestScore = c, score
			}
		}
	}
	if a.cfg.MeasureScheduling {
		a.schedEnd(start)
	}
	return best
}

// useRelevance promotes chunks needed by few queries, so that the least
// shareable data is consumed (and becomes evictable) first. The DSM variant
// (Figure 11) additionally promotes chunks occupying more buffer space.
func (s *relevStrategy) useRelevance(c int, q *Query) float64 {
	a := s.a
	if !a.layout.Columnar() {
		return qMax - float64(a.interested(c, 0))
	}
	u := float64(a.interested(c, q.Cols))
	if u < 1 {
		u = 1
	}
	pu := float64(s.cachedBytes(c, q.Cols))
	return pu / u
}

// cachedBytes sums the resident bytes of chunk c over cols (DSM only):
// the loaded members of cols come from one bit intersection.
func (s *relevStrategy) cachedBytes(c int, cols storage.ColSet) int64 {
	b := s.a.cache
	var n int64
	for v := uint64(cols & b.residentCols[c]); v != 0; v &= v - 1 {
		n += b.extentOf(partKey{chunk: c, col: bits.TrailingZeros64(v)}).Size
	}
	return n
}

// ---- ABM loader side ------------------------------------------------------

// nextLoad combines chooseQueryToProcess and chooseChunkToLoad: starved
// queries are ranked by queryRelevance, and the best loadable chunk of the
// best query wins; if the best query has nothing loadable (everything in
// flight), the next query is considered. The ranking is the maintained
// loadCands heap — keyed by candKey, a time-free transform of
// queryRelevance re-keyed at the per-query events that move it — so the
// common round pops one candidate in O(log starved) with no per-round
// rebuild or scoring pass. Candidates with nothing loadable are set aside
// and re-pushed after the decision; a registry-size or chunk-cost shift
// re-keys the whole heap once, lazily.
func (s *relevStrategy) nextLoad() (LoadDecision, bool) {
	a := s.a
	if a.candDirty {
		a.candRebuild()
	}
	aside := a.candAside[:0]
	var d LoadDecision
	ok := false
	for !ok {
		q, found := a.loadCands.pop()
		if !found {
			break
		}
		aside = append(aside, q)
		if c, cols, got := s.chooseChunkToLoad(q); got {
			d, ok = LoadDecision{Query: q, Chunk: c, Cols: cols}, true
		}
	}
	for _, q := range aside {
		a.addLoadCand(q)
	}
	a.candAside = aside[:0]
	return d, ok
}

// queryRelevance prioritises starved queries that need little more data,
// promoting those that have waited long so large scans cannot starve
// forever (Figure 3). Waiting time is normalised by the cost of one chunk
// load and by the number of running queries. The remaining-work penalty is
// divided by the query's SLO weight, so a weight-w query ranks as if it had
// remaining/w chunks left; weight 1 is the exact paper formula.
func (s *relevStrategy) queryRelevance(q *Query) float64 {
	a := s.a
	rel := 0.0
	if !a.cfg.NoShortQueryPriority {
		rel -= float64(q.remaining()) / q.weight
	}
	if !a.cfg.NoWaitPromotion {
		wait := (a.clock.Now() - q.lastService) / a.chunkCost
		rel += wait / float64(len(a.queries))
	}
	return rel
}

// chooseChunkToLoad returns the chunk with the highest loadRelevance among
// the query's needed, not-resident, not-in-flight chunks, plus the column
// set to load. The walk is bounded by the query's own range span.
func (s *relevStrategy) chooseChunkToLoad(q *Query) (int, storage.ColSet, bool) {
	a := s.a
	best, ok := -1, false
	bestScore := 0.0
	var bestCols storage.ColSet
	lo, hi := q.Ranges.Min(), q.Ranges.Max()
	for c := lo; c <= hi; c++ {
		if !q.needed[c] {
			continue
		}
		loadable, inFlight := s.loadState(q, c)
		if !loadable || inFlight {
			continue
		}
		score, cols := s.loadRelevance(c, q)
		if !ok || score > bestScore {
			best, bestScore, bestCols, ok = c, score, cols, true
		}
	}
	return best, a.colsOrNSM(bestCols), ok
}

// loadState reports whether chunk c still needs I/O for q and whether any
// of its parts is currently being loaded: two bit tests on the residency
// index.
func (s *relevStrategy) loadState(q *Query, c int) (needsIO, inFlight bool) {
	cols := s.a.queryCols(q)
	return s.a.cache.absentBits(cols, c) != 0, s.a.cache.loadingBits(cols, c) != 0
}

// loadRelevance scores a load candidate. NSM (Figure 3): chunks needed by
// many starved queries dominate (a read of the one group's counter), with
// total interest as the tie-breaker. DSM (Figure 11): starved-queries-served
// per cold byte, loading the union of the overlapping starved queries'
// columns — both the count and the union read off the column-group index
// instead of a query scan.
func (s *relevStrategy) loadRelevance(c int, q *Query) (float64, storage.ColSet) {
	a := s.a
	if !a.layout.Columnar() {
		return float64(q.group.starved[c])*qMax + float64(len(a.chunkQueries[c])), 0
	}
	l, union := a.starvedOverlap(c, q.Cols)
	cols := q.Cols.Union(union)
	pl := float64(a.coldBytesFor(c, cols))
	if pl < 1 {
		pl = 1
	}
	return float64(l) / pl, cols
}

// ---- eviction --------------------------------------------------------------

// EnsureSpace frees need bytes following §4/§6.2: never evict pinned
// parts, parts of chunks the triggering query needs, or chunks useful to a
// starved query; among the rest, evict the lowest keepRelevance first. In
// DSM, column parts useless to every interested query go first, and chunk
// eviction is iterative. If the guarded pass cannot free enough and every
// query is blocked (a DSM corner the paper's greedy approach misses), a
// final pass relaxes the usefulness guard to avoid deadlock.
//
// Victims pop off the incrementally maintained victim heap, which persists
// across rounds: a round starts by re-keying only the chunks whose counters
// or residency changed since the last one (flushVicDirty) — so scores are
// frozen per round exactly as a build-from-scratch heap would freeze them —
// then pops in keepRelevance order. Protection guards are evaluated at pop:
// hard-ineligible parts (pinned, loading, assembling, fresh) are parked for
// the whole call, chunks useful to a starved query until the relaxed pass,
// and chunks the trigger needs until the last-resort pass; both widenings
// require every registered query to be blocked (an O(1) counter read). DSM
// scores whose resident-byte denominator shrank mid-round can only have
// grown, so a popped entry with a stale score is re-keyed and re-pushed:
// the first entry popped with a current score is the exact minimum. Every
// parked entry is re-pushed before returning.
func (s *relevStrategy) EnsureSpace(need int64, trigger *Query) bool {
	a := s.a
	var start time.Duration
	if a.cfg.MeasureScheduling {
		start = a.schedStart()
	}
	defer func() {
		if a.cfg.MeasureScheduling {
			a.schedEnd(start)
		}
	}()

	if a.layout.Columnar() {
		// First pass: evict column parts no interested query uses. Parts of
		// a chunk an open load ticket is assembling are spared (the
		// simulator's central loader issues no tickets, so this guard
		// cannot perturb sim decisions).
		s.evictScratch = append(s.evictScratch[:0], a.cache.loadedParts()...)
		for _, pt := range s.evictScratch {
			if a.cache.free() >= need {
				return true
			}
			if evictable(pt) && !a.assemblingPart(pt.key) && s.colUseless(pt.key) {
				a.evictPart(pt.key)
			}
		}
	}

	s.flushVicDirty()
	columnar := a.layout.Columnar()
	blocked := s.vicAsideB[:0]
	useful := s.vicUseful[:0]
	trig := s.vicTrig[:0]
	pass := 0
	ok := false
	for {
		if a.cache.free() >= need {
			ok = true
			break
		}
		p, found := s.victims.pop()
		if !found {
			// The pass ran dry. Widen eligibility only while every query is
			// blocked; otherwise progress is still possible and the caller
			// waits instead.
			if pass == 2 || a.blockedCount != len(a.queries) {
				break
			}
			pass++
			widen := &useful
			if pass == 2 {
				widen = &trig
			}
			for _, p := range *widen {
				s.victims.push(p)
			}
			*widen = (*widen)[:0]
			continue
		}
		if a.blockedFromEviction(p) {
			blocked = append(blocked, p)
			continue
		}
		c := p.key.chunk
		if columnar {
			if cur := s.vicScoreDSM(c); cur > p.vicScore {
				p.vicScore = cur
				s.victims.push(p)
				continue
			}
		}
		if pass < 2 && trigger != nil && trigger.needed[c] {
			trig = append(trig, p)
			continue
		}
		if pass < 1 && a.starvedNeeding(c) > 0 {
			useful = append(useful, p)
			continue
		}
		a.evictPart(p.key)
	}
	for _, aside := range [...][]*part{blocked, useful, trig} {
		for _, p := range aside {
			s.victims.push(p)
		}
	}
	s.vicAsideB, s.vicUseful, s.vicTrig = blocked[:0], useful[:0], trig[:0]
	return ok
}

// flushVicDirty re-keys the victim-heap entries of every chunk marked dirty
// since the last eviction round. A chunk whose counters did not change
// keeps its frozen score, so flushing only the dirty set yields exactly the
// per-round snapshot semantics of the build-from-scratch heap, at a cost
// proportional to what actually changed.
func (s *relevStrategy) flushVicDirty() {
	a := s.a
	if len(a.vicDirtyList) == 0 {
		return
	}
	columnar := a.layout.Columnar()
	if columnar && s.vicE == nil {
		s.vicE = make([]float64, a.layout.NumChunks())
		s.vicCols = make([]storage.ColSet, a.layout.NumChunks())
	}
	for _, c := range a.vicDirtyList {
		a.vicDirty[c] = false
		if columnar {
			n, cols := a.almostNeeding(c)
			s.vicE[c], s.vicCols[c] = float64(n), cols
			score := s.vicScoreDSM(c)
			for v := uint64(a.cache.residentCols[c]); v != 0; v &= v - 1 {
				s.vicFix(a.cache.parts[partKey{chunk: c, col: bits.TrailingZeros64(v)}], score)
			}
		} else if a.cache.residentCols[c] != 0 {
			pt := a.cache.parts[partKey{chunk: c, col: -1}]
			s.vicFix(pt, s.keepRelevanceScore(pt))
		}
	}
	a.vicDirtyList = a.vicDirtyList[:0]
}

// vicScoreDSM scores chunk c's parts over the frozen almost-starved terms
// and the live resident bytes of the frozen column union.
func (s *relevStrategy) vicScoreDSM(c int) float64 {
	pe := float64(s.cachedBytes(c, s.vicCols[c]))
	if pe < 1 {
		pe = 1
	}
	return s.vicE[c] / pe
}

// vicOrder is the victim order: lowest keepRelevance first, (chunk, col)
// breaking ties.
type vicOrder struct{}

func (vicOrder) before(x, y *part) bool {
	if x.vicScore != y.vicScore {
		return x.vicScore < y.vicScore
	}
	return x.key.before(y.key)
}

func (vicOrder) slot(p *part) *int { return &p.vicIdx }

// vicFix re-keys a part and, if it is enrolled, restores the heap order
// around it.
func (s *relevStrategy) vicFix(p *part, score float64) {
	if p != nil {
		p.vicScore = score
		s.victims.fix(p)
	}
}

// colUseless reports whether no registered query that needs the chunk reads
// this column: a column-group read, not a query scan.
func (s *relevStrategy) colUseless(k partKey) bool {
	a := s.a
	if k.col < 0 || !a.layout.Columnar() {
		return len(a.chunkQueries[k.chunk]) == 0
	}
	return !a.colInterested(k.chunk, k.col)
}

// keepRelevanceScore is the eviction score: lower evicts first. NSM
// (Figure 3): almost-starved interest (the one group's counter) dominates,
// total interest breaks ties. DSM (Figure 11): almost-starved queries
// served per cached byte, via the column-group index. It reads the live
// counters — the first-principles reference the audits hold the victim
// heap's frozen per-round scores against.
func (s *relevStrategy) keepRelevanceScore(pt *part) float64 {
	a := s.a
	c := pt.key.chunk
	n, cols := a.almostNeeding(c)
	if !a.layout.Columnar() {
		return float64(n)*qMax + float64(len(a.chunkQueries[c]))
	}
	pe := float64(s.cachedBytes(c, cols))
	if pe < 1 {
		pe = 1
	}
	return float64(n) / pe
}

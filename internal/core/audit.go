package core

import (
	"fmt"

	"coopscan/internal/storage"
)

// AuditIncremental recomputes every incrementally maintained scheduler
// structure from first principles (the parts map and the queries' needed
// sets) and returns the first divergence as an error, or nil when all of it
// is consistent. It is the ground truth the O(1)-maintained counters are
// audited against — by the core's own randomized tests and by the live
// engine's fault-soak harness, which runs it mid-flight while loads are
// retrying, aborting, and being quarantined around it. The caller must hold
// whatever lock serialises access to the ABM.
func (a *ABM) AuditIncremental() error {
	if err := a.auditResidency(); err != nil {
		return err
	}
	if err := a.auditQueryAvailability(); err != nil {
		return err
	}
	if err := a.auditColGroups(); err != nil {
		return err
	}
	if err := a.auditLRUHeap(); err != nil {
		return err
	}
	if err := a.auditLoadCands(); err != nil {
		return err
	}
	if err := a.auditDerivedCounters(); err != nil {
		return err
	}
	if err := a.auditChunkQueries(); err != nil {
		return err
	}
	if err := a.auditVictimHeap(); err != nil {
		return err
	}
	return a.auditByteAccounting()
}

// AuditDrained checks the quiescent-state invariants that must hold once
// every scan has finished and no load is in flight: every load ticket
// landed, no query left queued, no pins, no loading parts, no leaked
// assembly marks, and byte accounting intact. A failure here is a leak —
// space a dead scan or aborted load still holds.
func (a *ABM) AuditDrained() error {
	if a.openLoads != 0 || len(a.queue) != 0 {
		return fmt.Errorf("core: %d load tickets never landed, %d queries still queued", a.openLoads, len(a.queue))
	}
	for _, p := range a.cache.loadedParts() {
		if p.pins != 0 {
			return fmt.Errorf("core: part %v holds %d pins after drain", p.key, p.pins)
		}
		if p.state == partLoading {
			return fmt.Errorf("core: part %v still loading after drain", p.key)
		}
	}
	if len(a.assembling) != 0 {
		return fmt.Errorf("core: %d assembly marks leaked after drain", len(a.assembling))
	}
	return a.auditByteAccounting()
}

// AuditStalled is the wedge check, for a driver whose IssueLoad with no veto
// has just issued nothing. That is legitimate while anything can still move
// without a load — a running query will release its pin, an open ticket
// will land, a blocked query with a chunk to pick has its wake-up coming, a
// queued query will be admitted — and an error when nothing can: queries
// are registered, every one of them is blocked with nothing available, none
// waits in the queue, and no load is open, so the next IssueLoad will see
// exactly this state again. Every guard on eviction is meant to lapse before
// that point; one that did not has wedged the table.
func (a *ABM) AuditStalled() error {
	if len(a.queries) == 0 || len(a.queue) != 0 || a.blockedCount != len(a.queries) || a.openLoads != 0 {
		return nil
	}
	for _, q := range a.queries {
		if q.available() > 0 {
			return nil
		}
	}
	return fmt.Errorf("core: stalled: all %d queries blocked with nothing available, no load open, and none issued (free %d of %d bytes, %d chunks held fresh)",
		len(a.queries), a.cache.free(), a.cache.capBytes, len(a.fresh))
}

// EachPart reports every non-absent part: its key (col is -1 for an NSM
// chunk), the buffer bytes its reservation accounts, whether it is resident
// (false: still loading) and the frame it carries. The live engine's frame
// audit walks it to check that every resident part's reservation is backed
// by exactly one frame of that size.
func (a *ABM) EachPart(fn func(chunk, col int, bytes int64, resident bool, frame any)) {
	for k, p := range a.cache.parts {
		first, last := a.cache.pageRange(k)
		fn(k.chunk, k.col, (last-first)*a.cache.pageBytes, p.state == partLoaded, p.frame)
	}
}

// auditResidency recomputes the per-chunk residency index and the
// pinned-parts count from the parts map.
func (a *ABM) auditResidency() error {
	b := a.cache
	n := a.layout.NumChunks()
	resident := make([]storage.ColSet, n)
	loading := make([]storage.ColSet, n)
	pinned := 0
	for k, p := range b.parts {
		switch p.state {
		case partLoaded:
			resident[k.chunk] |= colBit(k.col)
		case partLoading:
			loading[k.chunk] |= colBit(k.col)
		default:
			return fmt.Errorf("core: part %v in parts map with state %d", k, p.state)
		}
		if p.pins > 0 {
			pinned++
		}
	}
	if b.pinnedParts != pinned {
		return fmt.Errorf("core: pinnedParts = %d, recomputed %d", b.pinnedParts, pinned)
	}
	for c := 0; c < n; c++ {
		if b.residentCols[c] != resident[c] {
			return fmt.Errorf("core: residentCols[%d] = %v, recomputed %v", c, b.residentCols[c], resident[c])
		}
		if b.loadingCols[c] != loading[c] {
			return fmt.Errorf("core: loadingCols[%d] = %v, recomputed %v", c, b.loadingCols[c], loading[c])
		}
	}
	return nil
}

// auditQueryAvailability recomputes per-query availability and starvation
// flags.
func (a *ABM) auditQueryAvailability() error {
	b := a.cache
	n := a.layout.NumChunks()
	for _, q := range a.queries {
		req := b.requiredBits(a.queryCols(q))
		avail := 0
		if err := q.avail.audit("availability"); err != nil {
			return fmt.Errorf("core: %s: %w", q.Name, err)
		}
		inList := make(map[int]bool, q.available())
		for _, c := range q.avail.items {
			inList[c] = true
		}
		for c := 0; c < n; c++ {
			want := q.needs(c) && req&^b.residentCols[c] == 0
			if want {
				avail++
			}
			if want != inList[c] {
				return fmt.Errorf("core: %s availability membership of chunk %d = %v, recomputed %v",
					q.Name, c, inList[c], want)
			}
			if pos := q.avail.ord.pos[c]; !inList[c] && pos != -1 {
				return fmt.Errorf("core: %s records slot %d for chunk %d, which is not in its availability heap", q.Name, pos, c)
			}
		}
		// Cross-check against the independent pool-scan reference.
		if ref := a.availableCount(q, n+1); ref != avail || q.available() != avail {
			return fmt.Errorf("core: %s availability maintained=%d recomputed=%d reference=%d",
				q.Name, q.available(), avail, ref)
		}
		starved := avail < a.cfg.StarveThreshold
		almost := avail < a.cfg.StarveThreshold+1
		if q.starved != starved || q.almostStarved != almost {
			return fmt.Errorf("core: %s flags starved=%v almost=%v, recomputed %v/%v (avail %d, threshold %d)",
				q.Name, q.starved, q.almostStarved, starved, almost, avail, a.cfg.StarveThreshold)
		}
	}
	return nil
}

// auditColGroups recomputes the column-group index (per-colset member
// counts and per-chunk interested/starved/almost counters) from the query
// registry; an NSM layout's queries all key the one group of column set 0.
func (a *ABM) auditColGroups() error {
	n := a.layout.NumChunks()
	type ref struct {
		members                     int
		interested, starved, almost []int
	}
	want := map[storage.ColSet]*ref{}
	for _, q := range a.queries {
		cols := a.queryCols(q)
		r := want[cols]
		if r == nil {
			r = &ref{interested: make([]int, n), starved: make([]int, n), almost: make([]int, n)}
			want[cols] = r
		}
		r.members++
		for c := 0; c < n; c++ {
			if q.needs(c) {
				r.interested[c]++
				if q.starved {
					r.starved[c]++
				}
				if q.almostStarved {
					r.almost[c]++
				}
			}
		}
		if q.group == nil || q.group.cols != cols {
			return fmt.Errorf("core: query %s not linked to its column group", q.Name)
		}
	}
	if len(a.groups) != len(want) || len(a.groupIdx) != len(want) {
		return fmt.Errorf("core: %d groups (%d indexed), recomputed %d", len(a.groups), len(a.groupIdx), len(want))
	}
	for _, g := range a.groups {
		r := want[g.cols]
		if r == nil {
			return fmt.Errorf("core: group %v has no registered members", g.cols)
		}
		if a.groupIdx[g.cols] != g {
			return fmt.Errorf("core: group %v not indexed", g.cols)
		}
		if g.members != r.members {
			return fmt.Errorf("core: group %v members = %d, recomputed %d", g.cols, g.members, r.members)
		}
		for c := 0; c < n; c++ {
			if g.interested[c] != r.interested[c] || g.starved[c] != r.starved[c] || g.almost[c] != r.almost[c] {
				return fmt.Errorf("core: group %v chunk %d counters = (%d,%d,%d), recomputed (%d,%d,%d)",
					g.cols, c, g.interested[c], g.starved[c], g.almost[c],
					r.interested[c], r.starved[c], r.almost[c])
			}
		}
	}
	return nil
}

// auditLRUHeap checks the cache's LRU victim heap: exactly the loaded
// parts, in (lastTouch, chunk, col) heap order.
func (a *ABM) auditLRUHeap() error {
	return auditPartHeap(a.cache, &a.cache.lru, "LRU")
}

// auditPartHeap checks a heap that must hold exactly the loaded parts:
// shape (order and slots), every loaded part at its recorded slot, and no
// loading part enrolled.
func auditPartHeap[O heapOrder[*part]](b *bufcache, h *indexedHeap[*part, O], name string) error {
	if err := h.audit(name); err != nil {
		return err
	}
	loaded := 0
	for _, p := range b.loaded {
		i := *h.ord.slot(p)
		if p.state != partLoaded {
			if i != -1 {
				return fmt.Errorf("core: loading part %v sits in the %s heap", p.key, name)
			}
			continue
		}
		loaded++
		if i < 0 || i >= h.len() || h.items[i] != p {
			return fmt.Errorf("core: loaded part %v not at its %s heap slot %d", p.key, name, i)
		}
	}
	if h.len() != loaded {
		return fmt.Errorf("core: %s heap has %d entries, %d loaded parts", name, h.len(), loaded)
	}
	return nil
}

// auditLoadCands checks the relevance loader's candidate heap: exactly the
// starved queries that still have a non-resident needed chunk, in heap
// order, and — unless a re-key is pending — keyed at the current scale with
// the root agreeing with a linear queryRelevance scan.
func (a *ABM) auditLoadCands() error {
	h := &a.loadCands
	if err := h.audit("candidate"); err != nil {
		return err
	}
	members := 0
	for _, q := range a.queries {
		member := q.starved && q.remaining() > q.available()
		if member != (q.loadPos >= 0) {
			return fmt.Errorf("core: %s loadCands membership = %v, want %v (starved=%v remaining=%d avail=%d)",
				q.Name, q.loadPos >= 0, member, q.starved, q.remaining(), q.available())
		}
		if !member {
			continue
		}
		members++
		if q.loadPos >= h.len() || h.items[q.loadPos] != q {
			return fmt.Errorf("core: %s loadPos %d inconsistent", q.Name, q.loadPos)
		}
	}
	if h.len() != members {
		return fmt.Errorf("core: candidate heap has %d entries, %d registered candidates", h.len(), members)
	}
	if a.candDirty {
		return nil
	}
	for _, q := range h.items {
		if want := a.candKeyOf(q); q.candKey != want {
			return fmt.Errorf("core: %s candKey = %v, recomputed %v", q.Name, q.candKey, want)
		}
	}
	// candKey is an exact algebraic transform of queryRelevance, but the two
	// compute through different float operations, so the comparison carries
	// a relative tolerance. Under a wall clock every query's relevance grows
	// at the same rate, so a later read is higher by the time since an
	// earlier one: the root is read after each query it is compared with,
	// never before, so the clock favours the root, not the other query.
	if rs := a.relev; rs != nil && h.len() > 0 {
		best := h.peek()
		for _, q := range h.items[1:] {
			qr := rs.queryRelevance(q)
			br := rs.queryRelevance(best)
			if tol := 1e-9 * (abs64(br) + abs64(qr) + 1); qr > br+tol {
				return fmt.Errorf("core: candidate heap root %s (rel %v) loses to %s (rel %v)",
					best.Name, br, q.Name, qr)
			}
		}
	}
	return nil
}

// auditDerivedCounters recomputes the registry-level blocked count against
// a full registry walk (the exact loop the counter replaced), and checks
// that the admission queue and the registry are disjoint: a queued query
// counts in none of them.
func (a *ABM) auditDerivedCounters() error {
	for _, q := range a.queue {
		if !q.queued || q.abm != nil || q.blocked {
			return fmt.Errorf("core: queued %s: flagged %v, registered %v, blocked %v", q.Name, q.queued, q.abm != nil, q.blocked)
		}
	}
	blocked := 0
	for _, q := range a.queries {
		if q.blocked {
			blocked++
		}
		if q.abm != a || q.queued {
			return fmt.Errorf("core: %s not backlinked to its ABM, or still flagged queued", q.Name)
		}
	}
	if a.blockedCount != blocked {
		return fmt.Errorf("core: blockedCount = %d, recomputed %d", a.blockedCount, blocked)
	}
	return nil
}

// auditChunkQueries recomputes the per-chunk inverted query index: exactly
// the registered queries still needing the chunk, each at its recorded slot.
func (a *ABM) auditChunkQueries() error {
	n := a.layout.NumChunks()
	want := make([]int, n)
	for _, q := range a.queries {
		for c := 0; c < n; c++ {
			if q.needs(c) {
				want[c]++
				i := q.chunkPos[c]
				if i < 0 || i >= len(a.chunkQueries[c]) || a.chunkQueries[c][i] != q {
					return fmt.Errorf("core: %s chunkPos[%d] = %d inconsistent", q.Name, c, i)
				}
			} else if q.chunkPos[c] != -1 {
				return fmt.Errorf("core: %s chunkPos[%d] = %d for unneeded chunk", q.Name, c, q.chunkPos[c])
			}
		}
	}
	for c := 0; c < n; c++ {
		if len(a.chunkQueries[c]) != want[c] {
			return fmt.Errorf("core: chunkQueries[%d] has %d entries, recomputed %d", c, len(a.chunkQueries[c]), want[c])
		}
	}
	return nil
}

// auditVictimHeap checks the relevance policy's incremental victim heap:
// exactly the loaded parts, in (vicScore, chunk, col) heap order, and every
// part of a chunk not marked dirty carrying its live keepRelevance score.
// The score check is exact only for NSM, whose score is purely
// counter-derived; DSM scores legitimately lag the live resident-byte
// denominator until they are popped.
func (a *ABM) auditVictimHeap() error {
	rs := a.relev
	if rs == nil {
		return nil
	}
	if err := auditPartHeap(a.cache, &rs.victims, "victim"); err != nil {
		return err
	}
	if a.layout.Columnar() {
		return nil
	}
	for _, p := range rs.victims.items {
		if a.vicDirty[p.key.chunk] {
			continue
		}
		if want := rs.keepRelevanceScore(p); p.vicScore != want {
			return fmt.Errorf("core: part %v vicScore = %v, live score %v (chunk not dirty)",
				p.key, p.vicScore, want)
		}
	}
	return nil
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// auditByteAccounting cross-checks the page reference map against the
// used-byte counter: every referenced page accounts for exactly one page of
// usage, so an aborted or evicted part that failed to release its
// reservation shows up immediately.
func (a *ABM) auditByteAccounting() error {
	b := a.cache
	var pageBytes int64
	for _, refs := range b.pageRefs {
		if refs <= 0 {
			return fmt.Errorf("core: page map holds a %d-reference entry", refs)
		}
		pageBytes += b.pageBytes
	}
	if pageBytes != b.usedBytes {
		return fmt.Errorf("core: page map accounts %d bytes, usedBytes %d", pageBytes, b.usedBytes)
	}
	return nil
}

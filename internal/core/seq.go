package core

import (
	"fmt"

	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// seqStrategy implements the two sequential-delivery policies of §3:
//
//   - normal: each query reads its chunks strictly in range order through
//     an LRU buffer pool; concurrent scans interleave at the disk.
//   - attach: a new query first looks for the running scan with the largest
//     remaining overlap and starts reading at that scan's current position,
//     wrapping around to pick up the skipped prefix afterwards ("circular
//     scans" as in SQLServer, RedBrick and Teradata).
//
// Both are demand-driven: in the simulator the query process itself issues
// the chunk loads, with a small asynchronous read-ahead so CPU work
// overlaps I/O. In the live engine the same cursor-order decisions are
// executed by the central scheduler goroutine via IssueLoad, which serves
// the registered queries' demand (plus read-ahead) round-robin — the
// wall-clock equivalent of independent demand reads interleaving at the
// device.
type seqStrategy struct {
	a      *ABM
	attach bool

	// rr rotates nextLoad's starting query so no stream monopolises the
	// live loader (sim runs never call nextLoad).
	rr int
}

func (s *seqStrategy) Register(q *Query) {
	q.cursor = q.Ranges.Min()
	if !s.attach {
		return
	}
	// Attach to the overlapping query with the largest remaining overlap.
	best, bestScore := (*Query)(nil), 0.0
	mine := q.remainingSet()
	for _, other := range s.a.queries {
		if other == q {
			continue
		}
		overlap := float64(mine.OverlapLen(other.remainingSet()))
		if overlap == 0 {
			continue
		}
		if s.a.layout.Columnar() {
			// Weight chunk overlap by the physical size of the shared
			// columns (the paper's refined page-per-chunk measure); queries
			// with no shared columns share no I/O at all.
			shared := q.Cols.Intersect(other.Cols)
			if shared.Empty() {
				continue
			}
			weight := 0.0
			dsm := s.a.layout.(*storage.DSMLayout)
			shared.Each(func(col int) { weight += dsm.ColumnBytesPerChunk(col) })
			overlap *= weight
		}
		if overlap > bestScore {
			best, bestScore = other, overlap
		}
	}
	if best != nil {
		// Start at the position the attached-to scan will read next.
		if c, ok := q.Ranges.NextFrom(best.cursor); ok {
			q.cursor = c
		}
	}
	q.attachPoint = q.cursor
}

func (s *seqStrategy) Unregister(*Query) {}

func (s *seqStrategy) Consumed(*Query, int) {}

// nextLoad serves the queries' sequential demand centrally (live engine
// only): round-robin over the registered queries, each contributing its
// next needed chunk plus Prefetch read-ahead positions, first chunk that
// still needs I/O wins.
func (s *seqStrategy) nextLoad() (LoadDecision, bool) {
	a := s.a
	n := len(a.queries)
	for off := 0; off < n; off++ {
		i := (s.rr + off) % n
		q := a.queries[i]
		cursor := q.cursor
		for depth := 0; depth <= a.cfg.Prefetch; depth++ {
			c, ok := nextFrom(q, cursor)
			if !ok {
				break
			}
			cursor = c + 1
			cols := a.queryCols(q)
			if a.cache.absentBits(cols, c) != 0 {
				s.rr = (i + 1) % n
				return LoadDecision{Query: q, Chunk: c, Cols: a.colsOrNSM(cols)}, true
			}
		}
	}
	return LoadDecision{}, false
}

// commitLoad is a no-op for the sequential policies.
func (s *seqStrategy) commitLoad(LoadDecision) {}

// PickAvailable delivers the next chunk in (possibly wrapped) cursor order
// once it is fully resident, advancing the cursor (live engine only; the
// sim path assembles chunks on demand in next instead).
func (s *seqStrategy) PickAvailable(q *Query) int {
	c, ok := nextFrom(q, q.cursor)
	if !ok || !s.a.cache.chunkLoadedFor(s.a.queryCols(q), c) {
		return -1
	}
	q.cursor = c + 1
	return c
}

// EnsureSpace evicts plain LRU victims, as the paper's normal/attach
// policies do.
func (s *seqStrategy) EnsureSpace(need int64, _ *Query) bool {
	return s.a.makeSpace(need, nil)
}

func (s *seqStrategy) next(p *sim.Proc, q *Query) (int, bool) {
	c, ok := nextFrom(q, q.cursor)
	if !ok {
		return 0, false
	}
	s.a.ensureChunkDemand(p, q, c)
	s.a.cache.pinAll(s.a.queryCols(q), c, s.a.clock.Now(), nil)
	q.cursor = c + 1
	s.prefetch(q)
	return c, true
}

// prefetch fires asynchronous read-ahead for the next chunks in q's order.
// Read-ahead never blocks: if the pool has no space that plain LRU eviction
// can free, it is simply skipped.
func (s *seqStrategy) prefetch(q *Query) {
	cursor := q.cursor
	for i := 0; i < s.a.cfg.Prefetch; i++ {
		c, ok := nextFrom(q, cursor)
		if !ok {
			return
		}
		cursor = c + 1
		if s.a.cache.absentBits(s.a.queryCols(q), c) == 0 {
			continue // resident or loading already
		}
		s.a.env.Process(fmt.Sprintf("prefetch-%s-%d", q.Name, c), func(hp *sim.Proc) {
			s.a.prefetchChunk(hp, q, c)
		})
	}
}

// nextFrom returns the next chunk q needs in range order from position from,
// wrapping to consume the prefix an attach skipped.
func nextFrom(q *Query, from int) (int, bool) {
	for c := from; c < len(q.needed); c++ {
		if q.needed[c] {
			return c, true
		}
	}
	for c := 0; c < from && c < len(q.needed); c++ {
		if q.needed[c] {
			return c, true
		}
	}
	return 0, false
}

// ensureChunkDemand makes chunk c fully resident for q's columns on q's own
// behalf, blocking while other scans finish in-flight loads, and evicting
// LRU victims when the pool is full.
func (a *ABM) ensureChunkDemand(p *sim.Proc, q *Query, c int) {
	cols := a.queryCols(q)
	mark := func() { a.markAssembling(c, cols) }
	unmark := func() { a.unmarkAssembling(c, cols) }
	mark()
	defer unmark()
	for {
		// If any part is being loaded by another scan, wait for it: this is
		// exactly how two co-positioned normal scans end up sharing a read.
		loading := a.cache.loadingBits(cols, c) != 0
		absent := a.cache.absentBits(cols, c) != 0
		if loading {
			a.activity.Wait(p)
			continue
		}
		if !absent {
			return
		}
		need := a.coldBytesFor(c, cols)
		if a.cache.free() < need {
			if !a.makeSpace(need, nil) {
				// No victims: abandon our assembly marks so a competing
				// scan can finish its chunk, and retry on the next event.
				// Chunk assembly degrades to (partially) serial under
				// severe buffer pressure instead of thrashing.
				unmark()
				a.activity.Wait(p)
				mark()
				continue
			}
		}
		a.loadParts(p, c, cols, q)
		// Re-check rather than return: while this scan's disk reads were in
		// flight, another scan's eviction may have removed a part of this
		// chunk that was already resident (multi-column chunks only).
	}
}

// prefetchChunk is the non-blocking read-ahead body.
func (a *ABM) prefetchChunk(p *sim.Proc, q *Query, c int) {
	if !q.needs(c) {
		return // consumed meanwhile
	}
	cols := a.queryCols(q)
	if a.cache.loadingBits(cols, c) != 0 {
		return // someone else is already on it
	}
	need := a.coldBytesFor(c, cols)
	if need == 0 {
		return
	}
	if a.cache.free() < need && !a.makeSpace(need, nil) {
		return // no space without blocking: skip the read-ahead
	}
	a.loadParts(p, c, cols, q)
}

package core

import (
	"coopscan/internal/storage"
)

// elevStrategy implements the elevator policy of §3: a single, strictly
// sequential reading cursor for the entire system. The loader process sweeps
// the table in chunk order, loading each chunk that any active query still
// needs (with the union of needed columns in DSM), and only runs ahead of
// the slowest interested query by a bounded window — which is precisely why
// "query speed degenerates to the speed of the slowest query".
type elevStrategy struct {
	a      *ABM
	cursor int
	// outstanding tracks loader-loaded chunks that some query recorded at
	// load time has not yet consumed; such chunks are protected from
	// eviction and bound the cursor's progress.
	outstanding []*elevEntry
}

type elevEntry struct {
	chunk   int
	waiting []*Query
}

func (s *elevStrategy) Register(q *Query)   {}
func (s *elevStrategy) Unregister(q *Query) { s.dropQuery(q) }

func (s *elevStrategy) dropQuery(q *Query) {
	for i := 0; i < len(s.outstanding); {
		e := s.outstanding[i]
		e.remove(q)
		if len(e.waiting) == 0 {
			s.outstanding = append(s.outstanding[:i], s.outstanding[i+1:]...)
			continue
		}
		i++
	}
}

func (e *elevEntry) remove(q *Query) {
	for i, w := range e.waiting {
		if w == q {
			e.waiting = append(e.waiting[:i], e.waiting[i+1:]...)
			return
		}
	}
}

func (s *elevStrategy) Consumed(q *Query, c int) {
	for i, e := range s.outstanding {
		if e.chunk != c {
			continue
		}
		e.remove(q)
		if len(e.waiting) == 0 {
			s.outstanding = append(s.outstanding[:i], s.outstanding[i+1:]...)
		}
		return
	}
}

func (s *elevStrategy) outstandingChunk(c int) bool {
	for _, e := range s.outstanding {
		if e.chunk == c {
			return true
		}
	}
	return false
}

// PickAvailable prefers the query's outstanding loader-loaded chunks (in
// load order), falling back to any other resident needed chunk — a
// leftover from earlier in the sweep.
func (s *elevStrategy) PickAvailable(q *Query) int {
	a := s.a
	cols := a.queryCols(q)
	for _, e := range s.outstanding {
		if q.needs(e.chunk) && a.cache.chunkLoadedFor(cols, e.chunk) {
			return e.chunk
		}
	}
	// Lowest-index available chunk: the root of the query's chunk-keyed
	// availability heap.
	if q.avail.len() == 0 {
		return -1
	}
	return q.avail.peek()
}

// nextToLoad finds the next chunk in cursor order that some query needs and
// that requires I/O, together with the union of needed columns. Interest is
// one counter read per chunk and the column union comes off the column-group
// index, so the sweep no longer scans the query registry per chunk.
func (s *elevStrategy) nextToLoad() (int, storage.ColSet, bool) {
	a := s.a
	n := a.layout.NumChunks()
	columnar := a.layout.Columnar()
	for off := 0; off < n; off++ {
		c := (s.cursor + off) % n
		if a.interestCount[c] == 0 {
			continue
		}
		var cols storage.ColSet
		if columnar {
			cols = a.neededColsUnion(c)
		}
		if a.cache.absentBits(a.colsOrNSM(cols), c) != 0 {
			return c, cols, true
		}
	}
	return 0, 0, false
}

// colsOrNSM collapses a column set to the NSM pseudo-column when the layout
// is row-wise.
func (a *ABM) colsOrNSM(cols storage.ColSet) storage.ColSet {
	if !a.layout.Columnar() {
		return 0
	}
	return cols
}

// nextLoad picks the next cursor-order chunk some query needs that still
// requires I/O, attributed to the first interested query; ok=false when no
// query is registered, the window of outstanding loads is full, or nothing
// needs I/O.
func (s *elevStrategy) nextLoad() (LoadDecision, bool) {
	a := s.a
	if len(a.queries) == 0 || len(s.outstanding) >= a.cfg.ElevatorWindow {
		return LoadDecision{}, false
	}
	c, cols, ok := s.nextToLoad()
	if !ok {
		return LoadDecision{}, false
	}
	var attr *Query
	for _, q := range a.queries {
		if q.needs(c) {
			attr = q
			break
		}
	}
	return LoadDecision{Query: attr, Chunk: c, Cols: a.colsOrNSM(cols)}, true
}

// commitLoad records the interested queries — they are the ones the
// elevator waits for before letting the chunk go — and advances the sweep
// cursor past the chunk.
func (s *elevStrategy) commitLoad(d LoadDecision) {
	a := s.a
	entry := &elevEntry{chunk: d.Chunk}
	for _, q := range a.queries {
		if q.needs(d.Chunk) {
			entry.waiting = append(entry.waiting, q)
		}
	}
	s.outstanding = append(s.outstanding, entry)
	s.cursor = (d.Chunk + 1) % a.layout.NumChunks()
}

// EnsureSpace evicts LRU victims but never outstanding (loader-loaded,
// not yet consumed by every recorded query) chunks.
func (s *elevStrategy) EnsureSpace(need int64, _ *Query) bool {
	keep := func(pt *part) bool { return s.outstandingChunk(pt.key.chunk) }
	return s.a.makeSpace(need, keep)
}

package core

import (
	"fmt"

	"coopscan/internal/storage"
)

// Query is one registered CScan: a scan over a set of chunk ranges (and, in
// DSM, a set of columns) that is willing to accept chunks in any order the
// policy chooses.
type Query struct {
	ID   int
	Name string
	// Ranges is the set of chunks the scan must deliver (possibly pruned to
	// multiple ranges by zonemaps).
	Ranges storage.RangeSet
	// Cols is the set of columns read (DSM); NSM layouts ignore it.
	Cols storage.ColSet

	// needed[c] is true while chunk c still has to be consumed.
	needed      []bool
	neededCount int

	// avail indexes the needed chunks currently fully resident for the
	// query's columns as a min-heap on the chunk id (avail.ord.pos[c] is c's
	// heap slot, or -1), so the sequential-order pickers read their next
	// chunk at the root. The ABM maintains it at load/evict/consume/register
	// events, so starvation checks are O(1) flag reads and chunk selection
	// iterates only this query's available chunks — never the whole pool.
	avail indexedHeap[int, availOrder]

	// starved/almostStarved mirror avail.len() against the configured
	// starvation thresholds; the ABM folds every flip into the per-chunk
	// starved/almost-starved counters of the query's group.
	starved       bool
	almostStarved bool

	// group is the column-set group this query belongs to while
	// registered (keyed by queryCols, so every NSM query shares one), whose
	// per-chunk counters hold this query's interest and starvation.
	group *colGroup

	// seq is the query's registration sequence number: the relevance
	// loader's tie-break for equal queryRelevance (historically, the
	// registry iteration order of a stable sort).
	seq int
	// loadPos is the query's slot in the ABM's loadCands heap (the starved
	// queries with something left to load), or -1. Maintained by
	// updateStarveFlags at every availability or consumption event.
	loadPos int
	// candKey is the query's loadCands key: an affine transform of
	// -queryRelevance whose time term cancels across candidates, so the key
	// only changes when the query's remaining count or service stamp does.
	candKey float64

	// abm backrefs the ABM the query is registered with (nil otherwise),
	// so SetBlocked can maintain the registry-wide blocked count.
	abm *ABM
	// chunkPos[c] is the query's slot in the ABM's chunkQueries[c] inverted
	// index (registered queries still needing chunk c), or -1.
	chunkPos []int
	// waker, when set (live engine), is invoked whenever the query gains an
	// available chunk — the engine wakes exactly that stream instead of
	// broadcasting to every parked goroutine.
	waker func()

	// weight scales the relevance policy's short-query-priority term: the
	// remaining-work penalty is divided by it, so a weight-w query is ranked
	// as if it had remaining/w chunks left. SLO tiers set it (>1 for
	// interactive traffic); the default 1 is exact float identity with the
	// unweighted formula, and because the division touches only the
	// remaining term, the candidate key stays a time-free transform.
	weight float64

	enterTime   float64
	doneTime    float64
	lastService float64 // last time a chunk was delivered (for aging)

	// stats
	ios       int
	bytesRead int64
	consumed  int

	blocked bool
	// queued is set while the query waits in its ABM's admission queue.
	queued bool

	// cursor state for the sequential policies (normal/attach).
	cursor      int
	attachPoint int // first chunk taken when attaching
}

func (q *Query) String() string {
	return fmt.Sprintf("%s(id=%d, %s, cols=%v)", q.Name, q.ID, q.Ranges, q.Cols)
}

// needs reports whether chunk c still has to be consumed by q.
func (q *Query) needs(c int) bool {
	return c >= 0 && c < len(q.needed) && q.needed[c]
}

// markConsumed flips chunk c to consumed.
func (q *Query) markConsumed(c int) {
	if !q.needs(c) {
		panic(fmt.Sprintf("core: %s consumed chunk %d it does not need", q.Name, c))
	}
	q.needed[c] = false
	q.neededCount--
	q.consumed++
}

// remaining returns the number of chunks still to consume.
func (q *Query) remaining() int { return q.neededCount }

// available returns the maintained count of needed, fully resident chunks.
func (q *Query) available() int { return q.avail.len() }

// done reports whether the scan has consumed everything.
func (q *Query) finished() bool { return q.neededCount == 0 }

// Finished reports whether the scan has consumed its whole range (the live
// engine's loop condition; the sim driver uses ABM.Next's ok result).
func (q *Query) Finished() bool { return q.finished() }

// Needs reports whether chunk c still has to be consumed — the live
// engine's quarantine check: a scan fails only if an unloadable part lies
// in its remaining range.
func (q *Query) Needs(c int) bool { return q.needs(c) }

// SetBlocked marks the query as blocked waiting for a deliverable chunk.
// The sim delivery loops set it around their signal waits; the live engine
// must do the same around its condition-variable waits, because the
// relevance policy's eviction relaxation triggers only when every
// registered query is blocked. The ABM's registry-wide blocked count is
// maintained here, so that "is every query blocked?" is one comparison. A
// query queued for admission is never marked. It reports whether the flag
// changed.
func (q *Query) SetBlocked(b bool) bool {
	if b == q.blocked || q.queued {
		return false
	}
	q.blocked = b
	if q.abm != nil {
		if b {
			q.abm.blockedCount++
		} else {
			q.abm.blockedCount--
		}
	}
	return true
}

// SetWeight sets the query's starvation weight (SLO tier priority): the
// relevance policy divides the query's remaining-work penalty by w, so
// higher-weight queries are serviced as if they were shorter. Must be called
// before Register (the candidate heap is keyed at registration); w must be
// positive. Weight 1 (the default) reproduces the unweighted paper formula
// exactly.
func (q *Query) SetWeight(w float64) {
	if !(w > 0) {
		panic(fmt.Sprintf("core: query %q weight %v must be positive", q.Name, w))
	}
	if q.abm != nil {
		panic(fmt.Sprintf("core: SetWeight on registered query %q", q.Name))
	}
	q.weight = w
}

// Weight returns the query's starvation weight.
func (q *Query) Weight() float64 { return q.weight }

// SetWaker installs the live engine's per-stream wake callback, invoked
// (under its table's lock) whenever the query gains an available chunk.
// Gaining availability is a complete wake condition for every policy: the
// relevance and elevator pickers deliver only chunks on the availability
// list, and the sequential cursor's next chunk becoming fully resident is
// itself a gain event. Nil uninstalls.
func (q *Query) SetWaker(fn func()) { q.waker = fn }

// availOrder orders a query's available chunks by chunk id; pos[c] is
// chunk c's heap slot.
type availOrder struct{ pos []int }

func (availOrder) before(x, y int) bool { return x < y }
func (o availOrder) slot(c int) *int    { return &o.pos[c] }

// remainingSet materialises the still-needed chunks as a RangeSet (used by
// attach overlap estimation).
func (q *Query) remainingSet() storage.RangeSet {
	var ranges []storage.Range
	start := -1
	for c := 0; c < len(q.needed); c++ {
		if q.needed[c] && start < 0 {
			start = c
		}
		if !q.needed[c] && start >= 0 {
			ranges = append(ranges, storage.Range{Start: start, End: c})
			start = -1
		}
	}
	if start >= 0 {
		ranges = append(ranges, storage.Range{Start: start, End: len(q.needed)})
	}
	return storage.NewRangeSet(ranges...)
}

// Stats is the per-query outcome reported after a scan completes.
type Stats struct {
	Query     string
	Enter     float64 // virtual time the scan registered
	Done      float64 // virtual time the scan finished
	Chunks    int     // chunks consumed
	IOs       int     // disk requests issued on this query's behalf
	BytesRead int64   // bytes those requests transferred
	// BytesUseful is the logical footprint of the data the query actually
	// consumed: delivered tuples × the width of its column projection. The
	// live engine fills it in (the simulator leaves it zero); read / useful
	// is the I/O amplification a row-wise layout pays for a narrow
	// projection.
	BytesUseful int64
}

// Latency returns Done-Enter.
func (s Stats) Latency() float64 { return s.Done - s.Enter }

// stats snapshots the query's counters.
func (q *Query) stats() Stats {
	return Stats{
		Query: q.Name, Enter: q.enterTime, Done: q.doneTime,
		Chunks: q.consumed, IOs: q.ios, BytesRead: q.bytesRead,
	}
}

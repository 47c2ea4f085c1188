package core

import (
	"fmt"
	"time"

	"coopscan/internal/storage"
)

// This file is the live-engine surface of the ABM: the entry points
// internal/engine uses to drive the same bookkeeping the simulation driver
// uses, minus the simulated disk. The engine serialises every call on one
// ABM under that table's own mutex; nothing here blocks.

// Policy exposes the decision core of the configured policy.
func (a *ABM) Policy() SchedulerPolicy { return a.strat }

// FreeBytes returns the unreserved buffer capacity. SetBufferBytes below the
// usage makes it negative; the budget arbiter never does that, so under the
// live engine it is never negative (Server.AuditTables checks it).
func (a *ABM) FreeBytes() int64 { return a.cache.free() }

// UsedBytes returns the reserved bytes: resident parts plus the space held
// by in-flight load tickets.
func (a *ABM) UsedBytes() int64 { return a.cache.used() }

// BufferBytes returns the current buffer budget.
func (a *ABM) BufferBytes() int64 { return a.cache.capBytes }

// SetBufferBytes re-targets the buffer budget at runtime — the §7.1 remark
// that ABM "can easily adjust itself to a changed buffer size" when the
// system-wide load shifts. Growth takes effect immediately; a shrink below
// the current usage leaves FreeBytes negative until the ordinary eviction
// paths bring the pool under it. The multi-table budget arbiter
// (Manager.Rebalance) is the intended caller, and never shrinks a table
// below its usage.
func (a *ABM) SetBufferBytes(n int64) {
	a.cache.resize(n)
	a.cfg.BufferBytes = n
	a.broadcast()
}

// SetEvictHook installs an observer invoked for every part eviction with
// the part's (chunk, column) key — column is -1 for NSM parts — and its
// frame. The live engine returns the frame to its allocator there.
func (a *ABM) SetEvictHook(h func(chunk, col int, frame any)) { a.onEvict = h }

// Enqueue queues a built query for admission by the next AdmitQueued (a
// CScan "registers itself as an active scan", §4, through this queue in the
// live engine). A queued query is not in the registry: it adds no interest
// count, is never marked blocked, so the relevance policy's
// every-query-blocked relaxation does not count it, and it picks nothing.
// Finish takes it back out without a trace.
func (a *ABM) Enqueue(q *Query) {
	q.queued = true
	a.queue = append(a.queue, q)
}

// AdmitQueued registers every query enqueued before the call, in enqueue
// order, and fires each one's waker. The live engine calls it once per
// scheduler pass, which makes it the admission rule: a query enqueued during
// pass k becomes registered and pickable at pass k+1, so newcomers join in
// one batch behind the streams already delivering. The queue is taken whole
// first, so a query enqueued while admission runs waits for the next call.
func (a *ABM) AdmitQueued() {
	batch := a.queue
	a.queue = nil
	for _, q := range batch {
		q.queued = false
		a.Register(q)
		if q.waker != nil {
			q.waker()
		}
	}
}

// Idle reports whether no query is registered or queued and no load ticket
// is open.
func (a *ABM) Idle() bool { return len(a.queries) == 0 && len(a.queue) == 0 && a.openLoads == 0 }

// PinnedParts returns the number of resident parts some query has pinned.
func (a *ABM) PinnedParts() int { return a.cache.pinnedParts }

// WakeQueries fires every registered and queued query's waker, for a reason
// only the holder knows (the live engine: a quarantine, a detach, shutdown).
func (a *ABM) WakeQueries() {
	for _, qs := range [...][]*Query{a.queries, a.queue} {
		for _, q := range qs {
			if q.waker != nil {
				q.waker()
			}
		}
	}
}

// ReleaseFrames takes the frame off every part that carries one and hands it
// to fn: teardown of a table whose parts will not be delivered again. The
// parts stay accounted; a second call finds nothing.
func (a *ABM) ReleaseFrames(fn func(frame any)) {
	for _, p := range a.cache.loadedParts() {
		if p.frame != nil {
			fn(p.frame)
			p.frame = nil
		}
	}
}

// Load is the ticket of one issued load: the decision is committed, the
// absent parts it covers are marked loading and their buffer space is
// reserved. The holder reads exactly the parts Decision names, then lands
// the ticket with Finish or Abort — once; a second landing panics, and a
// ticket never landed fails AuditDrained.
type Load struct {
	a *ABM
	d LoadDecision
	// assembled is the column set the policy proposed, before Decision was
	// narrowed to the absent parts: the assembly mark the ticket holds
	// until it lands.
	assembled storage.ColSet
	landed    bool
}

// Decision returns what to read: Chunk, the attributed Query, and Cols
// narrowed to the parts this ticket transitioned to loading (zero for NSM,
// whose single pseudo-column part is implied). With several loads in
// flight a DSM proposal can name a column a sibling ticket is already
// reading; that column is the sibling's to land, and is not in Cols here.
func (l *Load) Decision() LoadDecision { return l.d }

// IssueLoad is the ABM loader's one step (Figure 3 main() up to loadChunk):
// ask the policy for the most valuable load, let accept veto it (nil
// accepts everything), make room for its cold bytes, commit it with the
// policy and reserve its parts. It returns nil when nothing was issued: the
// policy proposed nothing (accept was not called), accept refused, or
// everything evictable is pinned or protected — retry after a release. The
// caller performs the reads through its own substrate and lands the ticket;
// nothing here blocks.
//
// The proposal's chunk is marked as under assembly from before the eviction
// pass until the ticket lands: a DSM chunk can be partially resident, and
// victimising those parts would widen the load beyond the cold bytes just
// counted. The mark outlives the pass because other tickets' passes run
// while this one is in flight: were the siblings spared by its own pass
// only, two loads completing each other's chunks would evict each other's
// resident halves, every landing would leave a chunk complete for nobody,
// and the streams would wait on loads that never add up.
func (a *ABM) IssueLoad(accept func(LoadDecision) bool) *Load {
	d, need, ok := a.proposeLoad(accept)
	if !ok {
		return nil
	}
	a.markAssembling(d.Chunk, d.Cols)
	if need > 0 && a.cache.free() < need && !a.strat.EnsureSpace(need, d.Query) {
		a.unmarkAssembling(d.Chunk, d.Cols)
		return nil
	}
	a.strat.commitLoad(d)
	l := &Load{a: a, d: d, assembled: d.Cols}
	l.d.Cols = a.beginLoad(d)
	a.openLoads++
	return l
}

// proposeLoad is the deciding half of a load, shared by IssueLoad and the
// simulator's loader process: the policy's proposal, the caller's veto, and
// the cold bytes the load must find room for. The scheduling-cost window
// around the load decision lives here and nowhere else.
func (a *ABM) proposeLoad(accept func(LoadDecision) bool) (d LoadDecision, need int64, ok bool) {
	var start time.Duration
	if a.cfg.MeasureScheduling {
		start = a.schedStart()
	}
	d, ok = a.strat.nextLoad()
	if a.cfg.MeasureScheduling {
		a.schedEnd(start)
	}
	if !ok || (accept != nil && !accept(d)) {
		return d, 0, false
	}
	return d, a.coldBytesFor(d.Chunk, d.Cols), true
}

// Finish lands the ticket's parts: they become resident and every query
// that gained the chunk is woken through its waker. frames, when given, are
// the buffers the holder read the parts into, one per part in Decision's
// column order (one for an NSM chunk); each part carries its own until it is
// evicted. The chunk is then protected from eviction until a query pins it:
// the live engine's next eviction pass may run before any woken query
// goroutine reacquires the lock, and must not evict what was just loaded for
// them.
func (l *Load) Finish(frames ...any) {
	l.land()
	l.a.finishLoad(l.d, frames)
}

// Abort rolls the ticket back: its parts return from loading to absent and
// their reservation is released, so a load whose reads failed never leaks
// budget. The parts stay re-loadable; quarantining them is the caller's
// call.
func (l *Load) Abort() {
	l.land()
	l.a.abortLoad(l.d)
}

func (l *Load) land() {
	if l.landed {
		panic(fmt.Sprintf("core: load of chunk %d landed twice", l.d.Chunk))
	}
	l.landed = true
	l.a.openLoads--
	l.a.unmarkAssembling(l.d.Chunk, l.assembled)
}

// beginLoad marks the absent parts of the decision's chunk as loading,
// reserves their buffer space and charges their cold runs to the
// decision's query. It returns the column set of the parts it transitioned
// (zero for NSM); finishLoad and abortLoad take the decision narrowed to
// that set.
func (a *ABM) beginLoad(d LoadDecision) storage.ColSet {
	var kb [storage.MaxColumns]partKey
	keys := a.cache.partsInto(kb[:0], a.colsOrNSM(d.Cols), d.Chunk)
	sortPartsBySize(a.cache, keys)
	var marked storage.ColSet
	for _, k := range keys {
		if a.cache.state(k) != partAbsent {
			continue
		}
		a.beginPart(k, d.Query)
		if k.col >= 0 {
			marked = marked.Add(k.col)
		}
	}
	return marked
}

func (a *ABM) finishLoad(d LoadDecision, frames []any) {
	var kb [storage.MaxColumns]partKey
	for i, k := range a.cache.partsInto(kb[:0], a.colsOrNSM(d.Cols), d.Chunk) {
		if p := a.cache.parts[k]; p != nil && p.state == partLoading {
			if len(frames) != 0 {
				p.frame = frames[i]
			}
			a.finishPart(k)
		}
	}
	a.fresh[d.Chunk] = true
}

func (a *ABM) abortLoad(d LoadDecision) {
	var kb [storage.MaxColumns]partKey
	for _, k := range a.cache.partsInto(kb[:0], a.colsOrNSM(d.Cols), d.Chunk) {
		if a.cache.state(k) == partLoading {
			a.cache.abortLoad(k)
		}
	}
	a.strat.dropLoad(d)
}

// Pin pins every part of chunk c that q reads (the chunk must be fully
// resident for q's columns, i.e. PickAvailable returned it) and stamps the
// query's service time. Release undoes it. The first pin also lifts the
// chunk's fresh-load eviction protection. The pinned parts' frames, in the
// query's column order (one in NSM), are appended to a non-nil frames.
func (a *ABM) Pin(q *Query, c int, frames []any) []any {
	frames = a.cache.pinAll(a.queryCols(q), c, a.clock.Now(), frames)
	q.lastService = a.clock.Now()
	a.candFix(q)
	delete(a.fresh, c)
	return frames
}

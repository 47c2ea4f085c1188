package core

import (
	"coopscan/internal/storage"
)

// This file is the live-engine surface of the ABM: the entry points
// internal/engine uses to drive the same bookkeeping the simulation driver
// uses, minus the simulated disk. The engine serialises all calls under its
// own mutex; nothing here blocks.

// Policy exposes the decision core of the configured policy.
func (a *ABM) Policy() SchedulerPolicy { return a.strat }

// ColdBytes returns the bytes that still need I/O to make chunk c resident
// for cols (zero for NSM).
func (a *ABM) ColdBytes(c int, cols storage.ColSet) int64 {
	return a.coldBytesFor(c, cols)
}

// FreeBytes returns the unreserved buffer capacity. It is negative while the
// ABM holds more than a freshly shrunk budget; loads must then evict (or
// wait) until the pool drains under the new cap.
func (a *ABM) FreeBytes() int64 { return a.cache.free() }

// UsedBytes returns the reserved bytes: resident parts plus the space held
// by in-flight BeginLoad reservations.
func (a *ABM) UsedBytes() int64 { return a.cache.used() }

// BufferBytes returns the current buffer budget.
func (a *ABM) BufferBytes() int64 { return a.cache.capBytes }

// SetBufferBytes re-targets the buffer budget at runtime — the §7.1 remark
// that ABM "can easily adjust itself to a changed buffer size" when the
// system-wide load shifts. Growth takes effect immediately; a shrink below
// the current usage leaves FreeBytes negative and the pool converges through
// the ordinary eviction paths. The multi-table budget arbiter
// (Manager.Rebalance) is the intended caller.
func (a *ABM) SetBufferBytes(n int64) {
	a.cache.resize(n)
	a.cfg.BufferBytes = n
	a.broadcast()
}

// DrainExcess evicts least-recently-touched parts until the pool fits the
// current budget again, and reports whether it got there. The live engine
// calls it for a table that is over a freshly shrunk budget but has no
// registered queries: such a table issues no loads, so the ordinary
// EnsureSpace paths would never run and the usage clamp in
// Manager.Rebalance would strand its bytes forever. With no queries there
// is nothing for a policy to protect (no pins, no starvation, and the
// fresh-load guard self-disables), so plain LRU eviction is safe.
func (a *ABM) DrainExcess() bool {
	return a.makeSpace(0, nil)
}

// Demand summarises the table's current scheduling pressure: the number of
// registered queries and how many of them are starved under the configured
// threshold.
func (a *ABM) Demand() (active, starved int) {
	return len(a.queries), a.starvedQueries
}

// DemandBytes estimates the table's outstanding work in bytes: for every
// registered query, the bytes its remaining chunks still have to deliver
// (its column subset only, in DSM), with starved queries counted twice —
// the byte-weighted analogue of Demand's active+starved stream count. The
// budget arbiter (Manager.Rebalance) weighs tables by it, so a table whose
// streams still have gigabytes to scan outweighs one with the same stream
// count nursing a few trailing chunks — §7.1's "system-wide load", not
// just stream arity.
// The sum is maintained incrementally (refreshDemand at registration,
// consumption and starvation flips), so the engine's per-iteration poll
// across every table is a field read per table, not a registry walk.
func (a *ABM) DemandBytes() int64 { return a.demandBytes }

// queryChunkBytes returns the average bytes one chunk delivers to q: the
// query's column footprint per chunk in DSM, the table-average chunk size
// otherwise.
func (a *ABM) queryChunkBytes(q *Query) float64 {
	if d, ok := a.layout.(*storage.DSMLayout); ok {
		var per float64
		q.Cols.Each(func(col int) { per += d.ColumnBytesPerChunk(col) })
		return per
	}
	n := a.layout.NumChunks()
	if n == 0 {
		return 0
	}
	return float64(layoutBytes(a.layout)) / float64(n)
}

// SetChunkCost overrides the assumed cost (in clock seconds) of loading one
// chunk, used to normalise waiting time in the relevance function. The live
// engine sets it from the table's real chunk size; zero or negative values
// are ignored.
func (a *ABM) SetChunkCost(c float64) {
	if c > 0 {
		a.chunkCost = c
		// The candidate keys embed the cost; re-key lazily.
		a.candDirty = true
	}
}

// SetEvictHook installs an observer invoked for every part eviction with
// the part's (chunk, column) key; column is -1 for NSM parts. The live
// engine releases the part's pinned buffer-pool pages there.
func (a *ABM) SetEvictHook(h func(chunk, col int)) { a.onEvict = h }

// MarkAssembling protects the parts of (chunk, cols) from eviction while a
// load of that chunk is being prepared — the paper's §6.2 rule that "the
// already-loaded part of the chunk is marked as used, which prohibits its
// eviction". The live engine wraps the EnsureSpace call between a load
// decision and its BeginLoad in a Mark/Unmark pair: a DSM chunk can be
// partially resident, and an eviction pass that victimised the resident
// sibling columns would silently widen the load beyond the space just
// ensured (the cold-byte count was taken before the pass). The simulator's
// demand-scan path (ensureChunkDemand) uses the same marks.
func (a *ABM) MarkAssembling(c int, cols storage.ColSet) {
	var kb [storage.MaxColumns]partKey
	for _, k := range a.cache.partsInto(kb[:0], a.colsOrNSM(cols), c) {
		a.assembling[k]++
	}
}

// UnmarkAssembling releases MarkAssembling's eviction protection.
func (a *ABM) UnmarkAssembling(c int, cols storage.ColSet) {
	var kb [storage.MaxColumns]partKey
	for _, k := range a.cache.partsInto(kb[:0], a.colsOrNSM(cols), c) {
		if a.assembling[k]--; a.assembling[k] == 0 {
			delete(a.assembling, k)
		}
	}
}

// BeginLoad marks the absent parts of the decision's chunk as loading and
// reserves their buffer space; the caller then performs the reads through
// its own substrate (the engine's page pool knows better than the ABM
// which pages are physically cached). Chunk-level I/O accounting
// (requests, bytes, per-query attribution) happens here, mirroring the
// simulation's loadParts. The caller must have ensured space
// (FreeBytes() >= ColdBytes) and must call FinishLoad after the reads
// complete, with the decision's Cols narrowed to the returned set.
//
// The return value is the column set of the parts this call transitioned
// to loading (zero for NSM, whose single pseudo-column part is implied).
// With several loads in flight, a DSM decision can name a column another
// in-flight load is already reading (the policies only require that *some*
// part of the chunk still needs I/O); the caller must read and FinishLoad
// only the parts it marked, or it would commit a sibling load's columns
// before their reads landed.
func (a *ABM) BeginLoad(d LoadDecision) storage.ColSet {
	cols := a.colsOrNSM(d.Cols)
	var kb [storage.MaxColumns]partKey
	keys := a.cache.partsInto(kb[:0], cols, d.Chunk)
	sortPartsBySize(a.cache, keys)
	var marked storage.ColSet
	for _, k := range keys {
		if a.cache.state(k) != partAbsent {
			continue
		}
		for _, r := range a.cache.coldRuns(k) {
			a.stats.IORequests++
			a.stats.BytesRead += r.Size
			if d.Query != nil {
				d.Query.ios++
				d.Query.bytesRead += r.Size
			}
		}
		a.cache.beginLoad(k, a.clock.Now())
		if k.col >= 0 {
			marked = marked.Add(k.col)
		}
	}
	return marked
}

// FinishLoad transitions the parts BeginLoad marked to resident and
// propagates availability to the interested queries. Callers with several
// loads in flight must pass the decision with Cols narrowed to BeginLoad's
// return value, so a job never commits parts a sibling job is reading.
func (a *ABM) FinishLoad(d LoadDecision) {
	cols := a.colsOrNSM(d.Cols)
	var kb [storage.MaxColumns]partKey
	keys := a.cache.partsInto(kb[:0], cols, d.Chunk)
	for _, k := range keys {
		if a.cache.state(k) != partLoading {
			continue
		}
		a.cache.finishLoad(k, a.clock.Now())
		a.partBecameResident(k)
		a.vicAdd(k)
		a.stats.Loads++
	}
	// Protect the fresh chunk from eviction until a query pins it: the live
	// engine's next eviction pass may run before any woken query goroutine
	// reacquires the lock, and must not evict what was just loaded for them
	// (the sim loaders guarantee this by yielding after each load).
	a.fresh[d.Chunk] = true
}

// AbortLoad rolls back a failed BeginLoad: every part the load marked (pass
// the decision with Cols narrowed to BeginLoad's return value, exactly as
// FinishLoad requires) returns from loading to absent and its buffer
// reservation is released. This is the live engine's fault path — a load
// whose reads exhausted their retries must give the space back, or the
// budget leaks a dead reservation forever (the §6.2 lesson, in reverse).
// The parts stay re-loadable; quarantining them is the caller's call.
func (a *ABM) AbortLoad(d LoadDecision) {
	cols := a.colsOrNSM(d.Cols)
	var kb [storage.MaxColumns]partKey
	for _, k := range a.cache.partsInto(kb[:0], cols, d.Chunk) {
		if a.cache.state(k) != partLoading {
			continue
		}
		a.cache.abortLoad(k)
	}
}

// Pin pins every part of chunk c that q reads (the chunk must be fully
// resident for q's columns, i.e. PickAvailable returned it) and stamps the
// query's service time. Release undoes it. The first pin also lifts the
// chunk's fresh-load eviction protection.
func (a *ABM) Pin(q *Query, c int) {
	a.cache.pinAll(a.queryCols(q), c, a.clock.Now())
	q.lastService = a.clock.Now()
	a.candFix(q)
	delete(a.fresh, c)
}

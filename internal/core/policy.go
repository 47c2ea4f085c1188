package core

import "coopscan/internal/storage"

// This file defines the simulation-free decision core of the scheduling
// policies. The simulator and the live engine (internal/engine, real files
// and goroutines) must make the *same* decisions, so the decision logic is
// factored out of all waiting and I/O:
//
//   - the load side — which chunk to load, what to evict for it — is driven
//     only by the ABM's own load step (proposeLoad, behind IssueLoad and
//     the simulator's loader process), so there is one sequence and no
//     caller can re-spell it;
//   - the scan side is SchedulerPolicy: the sim's CScan loop and the live
//     engine's per-query goroutines call PickAvailable between their
//     (virtual- or wall-clock) waits.
//
// Every method is synchronous and non-blocking: it reads and updates ABM
// bookkeeping (registered queries, residency bit sets, interest counters,
// availability lists) and returns immediately.

// Clock is the scheduler's notion of time, in seconds: virtual time in the
// simulator (sim.Env implements it), wall-clock seconds since engine start
// in the live engine. The ABM uses it for LRU recency, waiting-time
// promotion and per-query latency accounting.
type Clock interface {
	Now() float64
}

// LoadDecision is one scheduler choice: make chunk Chunk resident for the
// part-column set Cols (zero for NSM layouts), attributing the I/O to Query
// (nil when no specific query triggered the load).
type LoadDecision struct {
	Query *Query
	Chunk int
	Cols  storage.ColSet
}

// SchedulerPolicy is the part of one policy's decision core that callers
// outside the ABM's load step use (the rest is the unexported strategy).
// Callers must serialise all calls (the simulator is single-threaded by
// construction; the live engine holds its mutex).
type SchedulerPolicy interface {
	// Register installs policy-specific state for a newly registered query
	// (e.g. the attach policy picks the overlapping scan to join).
	Register(q *Query)
	// Unregister drops the query's policy state.
	Unregister(q *Query)
	// Consumed is invoked after q released chunk c.
	Consumed(q *Query, c int)

	// PickAvailable returns the resident chunk q should consume next, or -1
	// if none is deliverable (always, for a query queued for admission).
	// Policies may advance per-query cursor state, so callers must pin and
	// deliver the returned chunk.
	PickAvailable(q *Query) int
	// EnsureSpace evicts parts under the policy's eviction rules until need
	// bytes are free; false means it could not (everything pinned or
	// protected), and the caller should wait for releases and retry.
	EnsureSpace(need int64, trigger *Query) bool
}

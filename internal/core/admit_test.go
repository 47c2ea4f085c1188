package core

import (
	"slices"
	"testing"

	"coopscan/internal/storage"
)

// The live engine admits scans by one rule (ABM.Enqueue, ABM.AdmitQueued):
// a query enqueued during scheduler pass k becomes registered and pickable
// at pass k+1. The tests below state the rule's parts one by one.

// admitFixture is a live ABM over an 8-chunk table with room for four
// chunks; columnar picks a 4-column DSM layout over NSM.
func admitFixture(t *testing.T, policy Policy, columnar bool) (*ABM, storage.ColSet) {
	t.Helper()
	var layout storage.Layout = nsmTestLayout(8)
	var cols storage.ColSet
	if columnar {
		layout, cols = dsmTestLayout(8, 4), storage.Cols(0, 1)
	}
	full := layout.ChunkBytes(0, storage.AllCols(layout.Table().NumColumns()))
	return NewLiveManager(&stepClock{}, Config{Policy: policy}).Attach(layout, 4*full), cols
}

func scanOf(a *ABM, name string, start, end int, cols storage.ColSet) *Query {
	return a.NewQuery(name, storage.NewRangeSet(storage.Range{Start: start, End: end}), cols)
}

// TestQueuedQueryIsInNoIndex: a queued query moves no interest counter, no
// column group and no blocked count, passes the incremental
// audit, and cannot be picked although a chunk it needs is resident —
// until AdmitQueued registers it.
func TestQueuedQueryIsInNoIndex(t *testing.T) {
	for _, pol := range Policies {
		for _, columnar := range []bool{false, true} {
			t.Run(pol.String()+map[bool]string{false: "/nsm", true: "/dsm"}[columnar], func(t *testing.T) {
				a, cols := admitFixture(t, pol, columnar)
				r := scanOf(a, "r", 0, 8, cols)
				a.Register(r)
				ld := a.IssueLoad(nil)
				if ld == nil {
					t.Fatal("setup: no load issued for a registered scan over a cold table")
				}
				ld.Finish()
				c := ld.Decision().Chunk
				r.SetBlocked(true)

				interest, starved, almost := groupSums(a)
				blocked, groups := a.blockedCount, len(a.groups)
				q := scanOf(a, "q", 0, 8, cols)
				a.Enqueue(q)
				q.SetBlocked(true)
				nowInterest, nowStarved, nowAlmost := groupSums(a)
				if !slices.Equal(nowInterest, interest) || !slices.Equal(nowStarved, starved) ||
					!slices.Equal(nowAlmost, almost) || len(a.groups) != groups {
					t.Error("enqueueing moved an interest counter or a column group")
				}
				if a.blockedCount != blocked || len(a.queries) != 1 {
					t.Errorf("blocked %d → %d, %d registered: want both unchanged",
						blocked, a.blockedCount, len(a.queries))
				}
				auditIncrementalState(t, a, "query queued")
				if got := a.Policy().PickAvailable(q); got != -1 {
					t.Fatalf("queued query picked chunk %d (chunk %d resident)", got, c)
				}

				a.AdmitQueued()
				auditIncrementalState(t, a, "query admitted")
				if n := len(a.chunkQueries[c]); n != interest[c]+1 {
					t.Errorf("admitted: interest in chunk %d %d → %d", c, interest[c], n)
				}
				if got := a.Policy().PickAvailable(q); got != c {
					t.Errorf("admitted query picks %d, want resident chunk %d", got, c)
				}
			})
		}
	}
}

// TestAdmitQueuedKeepsEnqueueOrder: admission registers the queue in
// enqueue order — registration sequence follows it — and fires each waker
// exactly once; a queued query's waker also answers WakeQueries.
func TestAdmitQueuedKeepsEnqueueOrder(t *testing.T) {
	a, _ := admitFixture(t, Relevance, false)
	a.Register(scanOf(a, "running", 0, 8, 0))
	woken := map[*Query]int{}
	var order []*Query
	qs := make([]*Query, 4)
	for i := range qs {
		q := scanOf(a, "q", i, 8, 0)
		q.SetWaker(func() { woken[q]++; order = append(order, q) })
		a.Enqueue(q)
		qs[i] = q
	}
	a.WakeQueries()
	if len(order) != len(qs) {
		t.Fatalf("WakeQueries fired %d queued wakers, want %d", len(order), len(qs))
	}
	clear(woken)
	order = nil

	a.AdmitQueued()
	if !slices.Equal(order, qs) {
		t.Error("wakers fired out of enqueue order")
	}
	for i, q := range qs {
		if woken[q] != 1 {
			t.Errorf("q%d: waker fired %d times, want once", i, woken[q])
		}
		if q.seq != qs[0].seq+i || q.abm != a {
			t.Errorf("q%d: registered %v with seq %d, want seq %d", i, q.abm == a, q.seq, qs[0].seq+i)
		}
	}
	auditIncrementalState(t, a, "queue admitted")
}

// TestEnqueueDuringAdmissionWaitsForTheNextPass is the pass k+1 rule: a
// query enqueued while AdmitQueued runs — here from the waker of the query
// being admitted — stays queued until the next call.
func TestEnqueueDuringAdmissionWaitsForTheNextPass(t *testing.T) {
	a, _ := admitFixture(t, Relevance, false)
	first, late := scanOf(a, "first", 0, 8, 0), scanOf(a, "late", 0, 4, 0)
	first.SetWaker(func() { a.Enqueue(late) })
	a.Enqueue(first)

	a.AdmitQueued()
	if first.queued || !late.queued || len(a.queries) != 1 {
		t.Fatalf("after pass 1: first queued %v, late queued %v, %d registered; want first only registered",
			first.queued, late.queued, len(a.queries))
	}
	if got := a.Policy().PickAvailable(late); got != -1 {
		t.Fatalf("late query picked chunk %d before its pass", got)
	}
	auditIncrementalState(t, a, "late query queued")
	a.AdmitQueued()
	if late.queued || len(a.queries) != 2 || late.seq != first.seq+1 {
		t.Fatalf("after pass 2: late queued %v, %d registered, seq %d", late.queued, len(a.queries), late.seq)
	}
}

// TestFinishQueuedLeavesNoTrace: a query finished while queued leaves the
// queue, the ABM idle and drained, and the rest of the queue in order.
func TestFinishQueuedLeavesNoTrace(t *testing.T) {
	a, _ := admitFixture(t, Relevance, false)
	q := scanOf(a, "q", 0, 8, 0)
	a.Enqueue(q)
	if a.Idle() {
		t.Error("Idle with a query queued")
	}
	if st := a.Finish(q); st.Chunks != 0 || st.Latency() != 0 {
		t.Errorf("queued query finished with %+v, want no chunks and no latency", st)
	}
	if !a.Idle() {
		t.Error("not Idle after the only queued query finished")
	}
	if err := a.AuditDrained(); err != nil {
		t.Errorf("drained audit: %v", err)
	}
	auditIncrementalState(t, a, "queued query finished")

	x, y, z := scanOf(a, "x", 0, 8, 0), scanOf(a, "y", 0, 8, 0), scanOf(a, "z", 0, 8, 0)
	for _, q := range []*Query{x, y, z} {
		a.Enqueue(q)
	}
	a.Finish(y)
	a.AdmitQueued()
	if !slices.Equal(a.queries, []*Query{x, z}) || y.abm != nil {
		t.Errorf("registry after finishing y while queued: %v", a.queries)
	}
}

// TestAuditStalledWaitsForTheQueue: every registered query blocked with
// nothing available and no load open is a stall — unless a query waits in
// the queue, whose admission is still to come.
func TestAuditStalledWaitsForTheQueue(t *testing.T) {
	a, _ := admitFixture(t, Relevance, false)
	r := scanOf(a, "r", 0, 8, 0)
	a.Register(r)
	r.SetBlocked(true)
	if a.AuditStalled() == nil {
		t.Fatal("setup: the blocked registry is not reported as stalled")
	}
	q := scanOf(a, "q", 0, 8, 0)
	a.Enqueue(q)
	if err := a.AuditStalled(); err != nil {
		t.Errorf("a query waits in the queue: %v", err)
	}
	a.Finish(q)
	if a.AuditStalled() == nil {
		t.Error("queue empty again: want the stall reported")
	}
}

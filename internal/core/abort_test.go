package core

import (
	"strings"
	"testing"

	"coopscan/internal/storage"
)

// stepClock is a hand-advanced live clock for driving the ABM without a
// simulation environment.
type stepClock struct{ now float64 }

func (c *stepClock) Now() float64 { return c.now }

// TestAbortLoadRollsBackReservation pins the fault path's budget invariant:
// Load.Abort is IssueLoad's exact inverse — the reservation is released, the
// parts return to absent (and stay re-loadable), and every incrementally
// maintained structure matches a from-scratch recomputation afterwards.
func TestAbortLoadRollsBackReservation(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		name := map[bool]string{false: "nsm", true: "dsm"}[columnar]
		t.Run(name, func(t *testing.T) {
			clk := &stepClock{}
			var layout storage.Layout
			var cols storage.ColSet
			if columnar {
				layout = dsmTestLayout(8, 4)
				cols = cols.Add(0).Add(2)
			} else {
				layout = nsmTestLayout(8)
			}
			buf := layout.ChunkBytes(0, storage.AllCols(layout.Table().NumColumns())) * 3
			mgr := NewLiveManager(clk, Config{Policy: Normal})
			abm := mgr.Attach(layout, buf)

			q := abm.NewQuery("q", storage.NewRangeSet(storage.Range{Start: 0, End: 8}), cols)
			abm.Register(q)

			free0 := abm.FreeBytes()
			ld := abm.IssueLoad(nil)
			if ld == nil {
				t.Fatal("no load issued for a registered query over a cold table")
			}
			if abm.FreeBytes() >= free0 {
				t.Fatalf("IssueLoad reserved nothing: free %d -> %d", free0, abm.FreeBytes())
			}

			ld.Abort()
			if got := abm.FreeBytes(); got != free0 {
				t.Fatalf("free bytes after abort = %d, want %d (budget leak)", got, free0)
			}
			if err := abm.AuditIncremental(); err != nil {
				t.Fatalf("audit after abort: %v", err)
			}

			// The aborted parts must be re-loadable: the policy re-proposes
			// the chunk and a fresh ticket makes it available.
			clk.now += 0.01
			ld2 := abm.IssueLoad(nil)
			if ld2 == nil {
				t.Fatal("no load issued after abort")
			}
			chunk := ld.Decision().Chunk
			if got := ld2.Decision().Chunk; got != chunk {
				t.Fatalf("post-abort decision picked chunk %d, want %d", got, chunk)
			}
			ld2.Finish()
			if err := abm.AuditIncremental(); err != nil {
				t.Fatalf("audit after reload: %v", err)
			}
			if c := abm.Policy().PickAvailable(q); c != chunk {
				t.Fatalf("PickAvailable = %d after reload, want %d", c, chunk)
			}

			// Drain: consume the one loaded chunk, finish the query, and
			// check the quiescent invariants.
			abm.Pin(q, chunk)
			abm.Release(q, chunk)
			abm.Finish(q)
			if err := abm.AuditDrained(); err != nil {
				t.Fatalf("drained audit: %v", err)
			}
		})
	}
}

// TestAbortLoadSkipsSiblingParts verifies that two tickets over one chunk
// never land each other's parts: the second proposal names a column the
// first ticket is already reading, so its ticket is narrowed to the rest,
// and aborting the first leaves the second's part loading.
func TestAbortLoadSkipsSiblingParts(t *testing.T) {
	clk := &stepClock{}
	layout := dsmTestLayout(8, 4)
	buf := layout.ChunkBytes(0, storage.AllCols(4)) * 4
	mgr := NewLiveManager(clk, Config{Policy: Normal})
	abm := mgr.Attach(layout, buf)

	qa := abm.NewQuery("qa", storage.NewRangeSet(storage.Range{Start: 0, End: 8}), storage.Cols(0))
	qb := abm.NewQuery("qb", storage.NewRangeSet(storage.Range{Start: 0, End: 8}), storage.Cols(0, 1))
	abm.Register(qa)
	abm.Register(qb)

	// Two overlapping loads of chunk 0: qa's column 0, then qb's columns
	// {0, 1}, of which column 0 is already in flight.
	la := abm.IssueLoad(nil)
	var proposed LoadDecision
	lb := abm.IssueLoad(func(d LoadDecision) bool { proposed = d; return true })
	if la == nil || lb == nil {
		t.Fatal("two registered queries over a cold table must yield two loads")
	}
	if d := la.Decision(); d.Chunk != 0 || d.Cols != storage.Cols(0) {
		t.Fatalf("first ticket = chunk %d cols %v, want chunk 0 cols {0}", d.Chunk, d.Cols)
	}
	if proposed.Chunk != 0 || proposed.Cols != storage.Cols(0, 1) {
		t.Fatalf("second proposal = chunk %d cols %v, want chunk 0 cols {0,1}", proposed.Chunk, proposed.Cols)
	}
	if d := lb.Decision(); d.Cols != storage.Cols(1) {
		t.Fatalf("second ticket cols = %v, want narrowed to {1}", d.Cols)
	}

	// Abort load A; load B's part must stay loading and then finish cleanly.
	la.Abort()
	if err := abm.AuditIncremental(); err != nil {
		t.Fatalf("audit after partial abort: %v", err)
	}
	if got := abm.cache.state(partKey{chunk: 0, col: 1}); got != partLoading {
		t.Fatalf("sibling part state = %d after abort, want loading", got)
	}
	lb.Finish()
	if err := abm.AuditIncremental(); err != nil {
		t.Fatalf("audit after sibling finish: %v", err)
	}
	if c := abm.Policy().PickAvailable(qb); c != -1 {
		t.Fatalf("qb PickAvailable = %d with column 0 aborted, want -1", c)
	}

	// Column 0 is re-proposed and lands; both queries can then consume.
	lc := abm.IssueLoad(nil)
	if lc == nil || lc.Decision().Chunk != 0 || lc.Decision().Cols != storage.Cols(0) {
		t.Fatalf("aborted column not re-proposed: %+v", lc)
	}
	lc.Finish()
	for _, q := range []*Query{qa, qb} {
		if c := abm.Policy().PickAvailable(q); c != 0 {
			t.Fatalf("%s PickAvailable = %d, want 0", q.Name, c)
		}
		abm.Pin(q, 0)
		abm.Release(q, 0)
		abm.Finish(q)
	}
	if err := abm.AuditDrained(); err != nil {
		t.Fatalf("drained audit: %v", err)
	}
}

// TestLoadTicketLandsExactlyOnce holds the protocol's structural invariant:
// a ticket is landed once, by Finish or by Abort. A second landing is a
// caller bug and panics; a ticket nobody landed is a leak AuditDrained
// reports.
func TestLoadTicketLandsExactlyOnce(t *testing.T) {
	newABM := func() (*ABM, *Query) {
		mgr := NewLiveManager(&stepClock{}, Config{Policy: Relevance})
		layout := nsmTestLayout(8)
		abm := mgr.Attach(layout, layout.ChunkBytes(0, 0)*4)
		q := abm.NewQuery("q", storage.NewRangeSet(storage.Range{Start: 0, End: 8}), 0)
		abm.Register(q)
		return abm, q
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	for name, second := range map[string]func(*Load){
		"Finish after Finish": (*Load).Finish,
		"Abort after Finish":  (*Load).Abort,
	} {
		abm, _ := newABM()
		ld := abm.IssueLoad(nil)
		ld.Finish()
		mustPanic(name, func() { second(ld) })
		if err := abm.AuditIncremental(); err != nil {
			t.Errorf("%s corrupted the ABM: %v", name, err)
		}
	}

	abm, q := newABM()
	if abm.IssueLoad(nil) == nil {
		t.Fatal("no load issued")
	}
	abm.Finish(q)
	err := abm.AuditDrained()
	if err == nil || !strings.Contains(err.Error(), "never landed") {
		t.Fatalf("AuditDrained with a dropped ticket = %v, want a never-landed error", err)
	}
}

// TestLiveLoadDecisionIsMetered: under MeasureScheduling a live ABM counts
// its load decisions alongside its picks, as ServerConfig.MeasureScheduling
// documents and as the simulator's loader always did.
func TestLiveLoadDecisionIsMetered(t *testing.T) {
	mgr := NewLiveManager(&stepClock{}, Config{Policy: Relevance, MeasureScheduling: true})
	layout := nsmTestLayout(8)
	abm := mgr.Attach(layout, layout.ChunkBytes(0, 0)*4)
	q := abm.NewQuery("q", storage.NewRangeSet(storage.Range{Start: 0, End: 8}), 0)
	abm.Register(q)

	// Every IssueLoad call is one load decision, including the closing one
	// that finds the query no longer starved.
	var decisions, loads int64
	for {
		ld := abm.IssueLoad(nil)
		decisions++
		if ld == nil {
			break
		}
		loads++
		ld.Finish()
	}
	if loads == 0 {
		t.Fatal("no load issued for a starved query over a cold table")
	}
	if _, calls := abm.SchedulingCost(); calls < decisions {
		t.Fatalf("%d load decisions taken, %d metered: the load decision is outside the window", decisions, calls)
	}
	picks := 0
	for c := abm.Policy().PickAvailable(q); c >= 0; c = abm.Policy().PickAvailable(q) {
		picks++
		abm.Pin(q, c)
		abm.Release(q, c)
	}
	picks++ // the closing pick that found nothing is a decision too
	if _, calls := abm.SchedulingCost(); calls < decisions+int64(picks) {
		t.Fatalf("%d load decisions + %d picks, only %d decisions metered", decisions, picks, calls)
	}
}

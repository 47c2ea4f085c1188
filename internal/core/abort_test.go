package core

import (
	"reflect"
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
			abm.Pin(q, chunk, nil)
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
		abm.Pin(q, 0, nil)
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
		"Finish after Finish": func(l *Load) { l.Finish() },
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
		abm.Pin(q, c, nil)
		abm.Release(q, c)
	}
	picks++ // the closing pick that found nothing is a decision too
	if _, calls := abm.SchedulingCost(); calls < decisions+int64(picks) {
		t.Fatalf("%d load decisions + %d picks, only %d decisions metered", decisions, picks, calls)
	}
}

// TestPartCarriesItsFrame follows the holder's buffers through the part
// table: what a ticket hands over at Finish is what Pin hands every query
// that reads the part — in the query's column order — and what the evict
// hook receives when the part goes; an aborted ticket leaves nothing behind;
// and the pinned-parts count moves only on a part's first pin and last
// release, however many queries overlap on it.
func TestPartCarriesItsFrame(t *testing.T) {
	clk := &stepClock{}
	evicted := map[partKey]any{}
	setup := func() (abm *ABM, wide, narrow *Query) {
		layout := dsmTestLayout(8, 4)
		abm = NewLiveManager(clk, Config{Policy: Normal}).Attach(layout, layout.ChunkBytes(0, storage.AllCols(4))*2)
		abm.SetEvictHook(func(chunk, col int, f any) { evicted[partKey{chunk, col}] = f })
		all := storage.NewRangeSet(storage.Range{Start: 0, End: 8})
		wide = abm.NewQuery("wide", all, storage.Cols(0, 1, 3))
		narrow = abm.NewQuery("narrow", all, storage.Cols(1))
		abm.Register(wide)
		abm.Register(narrow)
		return abm, wide, narrow
	}
	frames := func(abm *ABM) map[partKey]any {
		out := map[partKey]any{}
		abm.EachPart(func(chunk, col int, _ int64, resident bool, f any) {
			if f != nil && !resident {
				t.Errorf("part c%d/col%d carries a frame while loading", chunk, col)
			}
			out[partKey{chunk, col}] = f
		})
		return out
	}

	// Aborted: the parts go back to absent and no frame was ever theirs.
	abm, _, _ := setup()
	ld := abm.IssueLoad(nil)
	if got := frames(abm); len(got) != 3 {
		t.Fatalf("ticket covers %d parts, want 3", len(got))
	}
	ld.Abort()
	if got := frames(abm); len(got) != 0 {
		t.Fatalf("aborted ticket left parts behind: %v", got)
	}
	abm.ReleaseFrames(func(f any) { t.Errorf("aborted ticket left frame %v behind", f) })

	// Landed: each part carries the frame handed over for its column.
	abm, wide, narrow := setup()
	audit := func(when string) {
		t.Helper()
		if err := abm.AuditIncremental(); err != nil {
			t.Fatalf("audit %s: %v", when, err)
		}
	}
	ld = abm.IssueLoad(nil)
	if d := ld.Decision(); d.Chunk != 0 || d.Cols != wide.Cols {
		t.Fatalf("ticket = %+v, want chunk 0 cols %v", d, wide.Cols)
	}
	ld.Finish("c0/col0", "c0/col1", "c0/col3")
	audit("after landing")
	want := map[partKey]any{{0, 0}: "c0/col0", {0, 1}: "c0/col1", {0, 3}: "c0/col3"}
	if got := frames(abm); !reflect.DeepEqual(got, want) {
		t.Fatalf("parts carry %v, want %v", got, want)
	}

	// Pin hands the frames over in column order; two queries overlapping on
	// column 1 pin one part twice, and the count sees one part.
	buf := make([]any, 0, 4)
	if got := abm.Pin(wide, 0, buf); len(got) != 3 || got[0] != "c0/col0" || got[1] != "c0/col1" || got[2] != "c0/col3" {
		t.Fatalf("Pin(wide) handed %v", got)
	}
	if got := abm.PinnedParts(); got != 3 {
		t.Fatalf("PinnedParts = %d after wide's pin, want 3", got)
	}
	if got := abm.Pin(narrow, 0, buf); len(got) != 1 || got[0] != "c0/col1" {
		t.Fatalf("Pin(narrow) handed %v", got)
	}
	if got := abm.PinnedParts(); got != 3 {
		t.Fatalf("PinnedParts = %d with column 1 pinned twice, want 3", got)
	}
	audit("with overlapping pins")
	abm.Release(wide, 0)
	if got := abm.PinnedParts(); got != 1 {
		t.Fatalf("PinnedParts = %d after wide's release, want 1 (narrow still holds column 1)", got)
	}
	abm.Release(narrow, 0)
	if got := abm.PinnedParts(); got != 0 {
		t.Fatalf("PinnedParts = %d after both releases, want 0", got)
	}
	audit("after releases")

	// A nil destination collects nothing; a ticket without frames lands parts
	// that carry nil.
	for abm.Policy().PickAvailable(wide) != 1 {
		clk.now += 0.01
		abm.IssueLoad(nil).Finish()
	}
	if got := abm.Pin(wide, 1, nil); got != nil {
		t.Fatalf("Pin with a nil destination handed %v", got)
	}
	abm.Release(wide, 1)
	if got := abm.Pin(narrow, 1, buf); len(got) != 1 || got[0] != nil {
		t.Fatalf("Pin over a frameless part handed %v", got)
	}
	abm.Release(narrow, 1)

	// Evicted: the hook receives the frame the part carried. Chunk 0 is
	// consumed by everyone, so the next loads push it out.
	chunk0Gone := func() bool {
		for k := range want {
			if _, ok := evicted[k]; !ok {
				return false
			}
		}
		return true
	}
	for !chunk0Gone() {
		clk.now += 0.01
		ld := abm.IssueLoad(nil)
		if ld == nil {
			t.Fatalf("no load to force chunk 0 out (evicted so far: %v)", evicted)
		}
		ld.Finish()
		c := ld.Decision().Chunk
		for _, q := range []*Query{wide, narrow} {
			if abm.Policy().PickAvailable(q) == c {
				abm.Pin(q, c, nil)
				abm.Release(q, c)
			}
		}
	}
	for k, f := range want {
		if evicted[k] != f {
			t.Errorf("evict hook got %v for %v, want %v", evicted[k], k, f)
		}
	}
	audit("after evictions")
}

// TestSimPartsCarryNoFrame: the simulator moves no bytes, so no part of a
// simulated run ever carries a frame and the evict hook receives nil.
func TestSimPartsCarryNoFrame(t *testing.T) {
	for _, pol := range []Policy{Normal, Relevance} {
		l := dsmTestLayout(12, 3)
		ts := newTestSystem(t, l, pol, 2)
		evictions := 0
		check := func(chunk, col int, f any) {
			if f != nil {
				t.Errorf("%v: part c%d/col%d carries frame %v in a simulation", pol, chunk, col, f)
			}
		}
		ts.abm.SetEvictHook(func(chunk, col int, f any) { evictions++; check(chunk, col, f) })
		ts.runQueries(t, []scanSpec{{name: "q", ranges: fullRange(l), cols: storage.Cols(0, 2)}})
		ts.abm.EachPart(func(chunk, col int, _ int64, _ bool, f any) { check(chunk, col, f) })
		if evictions == 0 {
			t.Errorf("%v: a 12-chunk scan through a 2-chunk pool evicted nothing", pol)
		}
	}
}

package core

import (
	"testing"

	"coopscan/internal/storage"
)

// The live engine once stalled for good with nothing in flight: every stream
// parked, the scheduler parked, and IssueLoad refusing although the buffer
// held nothing anybody could use. Two mechanisms met. A load ticket shielded
// its chunk's resident columns only during its own eviction pass, so a
// second ticket's pass evicted them while the first was still reading, and
// the first landed a chunk complete for no query. Load.Finish then marked
// that chunk fresh, a guard only a Pin lifts — and nobody could pin it. The
// tests below build both halves directly.

// stallFixture is a 4-column, 6-chunk DSM table under the relevance policy
// with room for two whole chunks, and two registered queries reading every
// column: wide needs chunks 0-3, tail (nearly done, so the policy serves it
// first) needs chunks 4-5.
func stallFixture(t *testing.T) (a *ABM, wide, tail *Query, all storage.ColSet) {
	t.Helper()
	layout := dsmTestLayout(6, 4)
	all = storage.AllCols(4)
	a = NewLiveManager(&stepClock{}, Config{Policy: Relevance}).Attach(layout, 2*layout.ChunkBytes(0, all))
	wide = a.NewQuery("wide", storage.NewRangeSet(storage.Range{Start: 0, End: 4}), all)
	tail = a.NewQuery("tail", storage.NewRangeSet(storage.Range{Start: 4, End: 6}), all)
	a.Register(wide)
	a.Register(tail)
	return a, wide, tail, all
}

// TestFreshGuardLapsesWhenNobodyCanPick builds the stalled state: chunks 0
// and 1 hold columns {1,2,3} only, landed and never pinned, every query is
// blocked and no load is open. The policy proposes tail's chunk 4 first; the
// only room for it is under the two half-chunks nobody can pick.
func TestFreshGuardLapsesWhenNobodyCanPick(t *testing.T) {
	a, wide, tail, all := stallFixture(t)
	half := LoadDecision{Query: wide, Cols: storage.Cols(1, 2, 3)}
	for c := 0; c < 2; c++ {
		half.Chunk = c
		a.beginLoad(half)
		a.finishLoad(half, nil)
	}
	wide.SetBlocked(true)
	tail.SetBlocked(true)
	auditIncrementalState(t, a, "stalled state built")
	if wide.available() != 0 || tail.available() != 0 {
		t.Fatalf("setup: %d + %d chunks available, want none", wide.available(), tail.available())
	}
	if need := a.layout.ChunkBytes(4, all); a.FreeBytes() >= need {
		t.Fatalf("setup: %d bytes free, chunk 4 (%d) fits without an eviction", a.FreeBytes(), need)
	}

	ld := a.IssueLoad(nil)
	if ld == nil {
		t.Fatalf("no load issued: %v", a.AuditStalled())
	}
	if err := a.AuditStalled(); err != nil {
		t.Errorf("after an issued load: %v", err)
	}
	if d := ld.Decision(); d.Query != tail || d.Chunk != 4 || d.Cols != all {
		t.Errorf("issued chunk %d cols %v for %s, want tail's chunk 4, every column", d.Chunk, d.Cols, d.Query.Name)
	}
	ld.Finish()
	auditIncrementalState(t, a, "after the load")

	// The guard itself is intact: chunk 4 is complete for tail, so no pass
	// may take it before tail pins it, however hard the next load pushes.
	if c := a.Policy().PickAvailable(tail); c != 4 {
		t.Fatalf("tail picks %d, want 4", c)
	}
	for i := 0; i < 3; i++ {
		if ld := a.IssueLoad(nil); ld != nil {
			ld.Finish()
		}
	}
	if !a.cache.chunkLoadedFor(all, 4) {
		t.Fatal("chunk 4 was evicted between landing and tail's pin")
	}
	a.Pin(tail, 4, nil)
	a.Release(tail, 4)
}

// TestAuditStalledNamesTheWedge checks the audit rule on a buffer wedged by
// hand — both chunks' parts pinned by nobody's query, so no pass can make
// room: IssueLoad must refuse, and AuditStalled must call that a stall, but
// not while a query runs, a blocked query has something to pick, or a load
// is open.
func TestAuditStalledNamesTheWedge(t *testing.T) {
	a, wide, tail, all := stallFixture(t)
	for c := 0; c < 2; c++ {
		d := LoadDecision{Query: wide, Chunk: c, Cols: all}
		a.beginLoad(d)
		a.finishLoad(d, nil)
		for _, k := range a.cache.partsInto(nil, all, c) {
			a.cache.pin(k, 0, nil)
		}
	}
	if err := a.AuditStalled(); err != nil {
		t.Errorf("queries running: %v", err)
	}
	wide.SetBlocked(true)
	tail.SetBlocked(true)
	if err := a.AuditStalled(); err != nil {
		t.Errorf("wide has chunks to pick: %v", err)
	}
	// wide consumes the two chunks: now nobody can pick anything, nothing
	// is open, and the pinned buffer admits no load.
	for c := 0; c < 2; c++ {
		a.Pin(wide, c, nil)
		a.Release(wide, c)
	}
	if ld := a.IssueLoad(nil); ld != nil {
		t.Fatalf("setup: a load of chunk %d was issued over a pinned buffer", ld.Decision().Chunk)
	}
	if err := a.AuditStalled(); err == nil {
		t.Error("every query blocked, nothing available, nothing open, nothing issued: want an error")
	}
	for _, k := range a.cache.partsInto(nil, all, 0) {
		a.cache.unpin(k, 0)
	}
	ld := a.IssueLoad(nil)
	if ld == nil {
		t.Fatal("no load issued with chunk 0 evictable")
	}
	if err := a.AuditStalled(); err != nil {
		t.Errorf("a load is open: %v", err)
	}
	ld.Abort()
}

// TestOpenTicketShieldsResidentSiblings is the other half: while a ticket
// reads the missing columns of a chunk, no other ticket's eviction pass may
// take the columns already there, or the chunk lands complete for nobody.
func TestOpenTicketShieldsResidentSiblings(t *testing.T) {
	a, wide, tail, _ := stallFixture(t)
	a.Finish(tail)
	// Chunk 0 holds column 0 from an earlier residency, long since released.
	old := LoadDecision{Query: wide, Chunk: 0, Cols: storage.Cols(0)}
	a.beginLoad(old)
	a.finishLoad(old, nil)
	delete(a.fresh, 0)
	wide.SetBlocked(true)

	// Its cold bytes are the fewest, so chunk 0 goes out first, narrowed to
	// the missing columns.
	completing := a.IssueLoad(nil)
	if completing == nil || completing.Decision().Chunk != 0 || completing.Decision().Cols != storage.Cols(1, 2, 3) {
		t.Fatalf("setup: first ticket %+v, want chunk 0 columns {1,2,3}", completing)
	}
	// The loads behind it push for room while it reads: the second chunk
	// fits, the third finds only column 0 of chunk 0 not loading.
	var behind []*Load
	for i := 0; i < 3; i++ {
		if ld := a.IssueLoad(nil); ld != nil {
			behind = append(behind, ld)
		}
	}
	if a.cache.state(partKey{chunk: 0, col: 0}) != partLoaded {
		t.Fatal("column 0 of chunk 0 was evicted while a ticket was completing the chunk")
	}
	completing.Finish()
	auditIncrementalState(t, a, "chunk 0 landed")
	if c := a.Policy().PickAvailable(wide); c != 0 {
		t.Fatalf("wide picks %d after the landing, want chunk 0", c)
	}
	for _, ld := range behind {
		ld.Abort()
	}
	if len(behind) == 0 || len(a.assembling) != 0 {
		t.Errorf("%d tickets behind, %d assembly marks left after every landing", len(behind), len(a.assembling))
	}
}

// The elevator waits on every chunk it loaded until the queries recorded at
// load time consume it, and loads nothing while ElevatorWindow such chunks
// are outstanding. An aborted ticket leaves its chunk absent, so nobody can
// consume it: four aborts in a row once filled the window for good, with
// the one query blocked and buffer free.
func TestElevatorAbortsDoNotFillTheWindow(t *testing.T) {
	layout := nsmTestLayout(16)
	a := NewLiveManager(&stepClock{}, Config{Policy: Elevator}).Attach(layout, 8<<20)
	q := a.NewQuery("q", storage.NewRangeSet(storage.Range{Start: 0, End: 16}), 0)
	a.Register(q)
	for i := 0; i < a.cfg.ElevatorWindow; i++ {
		ld := a.IssueLoad(nil)
		if ld == nil {
			t.Fatalf("load %d not issued", i)
		}
		ld.Abort()
	}
	q.SetBlocked(true)
	if ld := a.IssueLoad(nil); ld == nil {
		t.Fatalf("no load issued after %d aborts: %v", a.cfg.ElevatorWindow, a.AuditStalled())
	}
}

package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/storage"
)

// The scheduler parks on its kick channel (Server.kick) until a wake site
// sends. Each test here parks it where only one site can restart it, so
// deleting that site's kick makes the test fail at its deadline instead of
// passing: the site is load-bearing, not a belt to another site's braces.
// The blocked flag and a departing stream are held by the existing suite
// (every relevance test blocks a stream on its next load, and every
// DetachTable waits on the last stream's departure).

// kickDeadline bounds every wait below; a kick arrives in microseconds.
const kickDeadline = 5 * time.Second

// waitParked gives the scheduler time to drain its kick and park.
func waitParked() { time.Sleep(20 * time.Millisecond) }

// TestKickOnArrival: a scan arriving at an idle server is admitted only
// because its arrival kicks the scheduler — a queued query is never marked
// blocked, so nothing else does.
func TestKickOnArrival(t *testing.T) {
	tf := newTestFile(t, 4_000, 1000, 91)
	srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	waitParked()
	ctx, cancel := context.WithTimeout(context.Background(), kickDeadline)
	defer cancel()
	if _, err := srv.ScanWith(ctx, ScanRequest{Table: 0, Name: "arrival", Ranges: rangeSet(0, 1), Cols: Q6Cols()}, nil); err != nil {
		t.Fatalf("lone scan on an idle server: %v", err)
	}
}

// meet returns a callback that blocks its caller until n callers have
// arrived or the deadline passes, and reports a missed deadline.
func meet(t *testing.T, n int, what string) func() {
	var mu sync.Mutex
	arrived := 0
	all := make(chan struct{})
	return func() {
		mu.Lock()
		if arrived++; arrived == n {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(kickDeadline):
			t.Errorf("%s: not all %d callers arrived within %v", what, n, kickDeadline)
		}
	}
}

// TestKickOnFreedSlot: at depth one, the second stream's load can be issued
// only once the first load has landed. The first load lands only after the
// second stream has blocked (its kick spent on a full pipeline), and the
// first stream then holds its chunk until the second has its own: nothing
// but the worker returning its in-flight slot kicks the scheduler.
func TestKickOnFreedSlot(t *testing.T) {
	tf := newTestFile(t, 4_000, 1000, 92)
	srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes(), InFlightDepth: 1}, tf)
	landing := make(chan struct{})
	setLoadHook(srv, func(_, chunk int) {
		if chunk == 0 {
			<-landing
		}
	})
	both := meet(t, 2, "both streams inside a chunk")
	var wg sync.WaitGroup
	scan := func(c int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Scan(0, "one", rangeSet(c, c+1), Q6Cols(), func(int, ChunkData) { both() }); err != nil {
				t.Error(err)
			}
		}()
	}
	scan(0)
	until(t, "chunk 0's load issued", func() bool { return srv.o.inflight.n.Load() == 1 })
	scan(1)
	waitParked()
	close(landing)
	wg.Wait()
}

// TestKickOnPinWhileWaitingForSpace: the scheduler parks on a load it found
// no room for, and only a pin makes the room — on DSM, the first pin of a
// freshly landed chunk lifts its eviction protection from the columns the
// pinning scan does not read. qw, registered by hand and never delivered
// to, holds chunk 0 fresh in every column; big reads chunk 1 and needs room
// for chunk 2; narrow's pin of chunk 0's one column frees the other
// columns. Both streams stay inside their chunks until chunk 2 loads, so no
// release or departure kicks the scheduler meanwhile.
func TestKickOnPinWhileWaitingForSpace(t *testing.T) {
	tf := newTestFileFormat(t, DSM, 3_000, 1000, 93)
	srv := newTestServer(t, ServerConfig{Policy: core.Normal, BufferBytes: 2 * tf.ChunkBytes(), InFlightDepth: 1}, tf)
	loaded2 := make(chan struct{})
	var once sync.Once
	setLoadHook(srv, func(_, chunk int) {
		if chunk == 2 {
			once.Do(func() { close(loaded2) })
		}
	})
	waitLoaded2 := func() {
		select {
		case <-loaded2:
		case <-time.After(kickDeadline):
			t.Errorf("chunk 2 not loaded within %v", kickDeadline)
		}
	}
	tbl := srv.slots()[0]
	all := storage.AllCols(NumCols)
	narrowCols := storage.Cols(ColShipDate)
	tbl.mu.Lock()
	qw := tbl.abm.NewQuery("qw", rangeSet(0, 1), all)
	tbl.abm.Register(qw)
	tbl.mu.Unlock()
	srv.wake()
	until(t, "chunk 0 resident", func() bool { return srv.Stats().Pool.Resident == NumCols })

	inChunk1 := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := srv.Scan(0, "big", rangeSet(1, 3), all.Minus(narrowCols), func(c int, _ ChunkData) {
			if c == 1 {
				close(inChunk1)
				waitLoaded2()
			}
		}); err != nil {
			t.Error(err)
		}
	}()
	<-inChunk1
	// Let the scheduler find no room for chunk 2 and park.
	waitParked()
	go func() {
		defer wg.Done()
		if _, err := srv.Scan(0, "narrow", rangeSet(0, 1), narrowCols, func(int, ChunkData) { waitLoaded2() }); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	tbl.mu.Lock()
	tbl.abm.Finish(qw)
	tbl.mu.Unlock()
}

// TestKickOnPinOfStarvedQuery: the unpin kicks nothing, so when it starves
// its query, the next pin kicks for it and the load overlaps that chunk's
// processing. A warm scan leaves chunks 0 and 1 resident; the next scan over
// 0-2 starts with both available (not starved: nothing to load), its first
// release starves it, and it holds its second chunk until chunk 2 has loaded,
// so no blocked flag or departure kicks the scheduler meanwhile.
func TestKickOnPinOfStarvedQuery(t *testing.T) {
	tf := newTestFile(t, 4_000, 1000, 94)
	srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	if _, err := srv.Scan(0, "warm", rangeSet(0, 2), Q6Cols(), nil); err != nil {
		t.Fatal(err)
	}
	loaded2 := make(chan struct{})
	var once sync.Once
	setLoadHook(srv, func(_, chunk int) {
		if chunk == 2 {
			once.Do(func() { close(loaded2) })
		}
	})
	waitParked()
	delivered := 0
	if _, err := srv.Scan(0, "starves", rangeSet(0, 3), Q6Cols(), func(int, ChunkData) {
		if delivered++; delivered == 2 {
			select {
			case <-loaded2:
			case <-time.After(kickDeadline):
				t.Errorf("chunk 2 not loaded within %v of the starved scan's pin", kickDeadline)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// until polls cond until it holds, failing the test after kickDeadline.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(kickDeadline); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within %v", what, kickDeadline)
		}
	}
}

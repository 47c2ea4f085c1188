// Server tests run real concurrent multi-table scans under every policy,
// verify true query results per table, and force the concurrent-load path
// to commit completions out of issue order. CI runs this package under
// -race.
package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/exec"
	"coopscan/internal/obs"
)

// newTestServer builds a server over freshly generated table files.
func newTestServer(t *testing.T, cfg ServerConfig, tfs ...*TableFile) *Server {
	t.Helper()
	srv, err := NewServer(cfg, tfs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// freeze takes Server.mu and every table's lock in slot order, so a test can
// read any state while nothing moves — the frame allocator too, which only
// moves under one of those locks; thaw releases them.
func freeze(s *Server) {
	s.mu.Lock()
	for _, t := range s.slots() {
		t.mu.Lock()
	}
}

func thaw(s *Server) {
	for _, t := range s.slots() {
		t.mu.Unlock()
	}
	s.mu.Unlock()
}

// setLoadHook installs the test-only load delay hook. Taking the server
// lock publishes the write to the workers (they first observe a job only
// through a later lock acquisition by the scheduler).
func setLoadHook(s *Server, hook func(table, chunk int)) {
	s.mu.Lock()
	s.loadHook = hook
	s.mu.Unlock()
}

func TestServerMultiTableAllPolicies(t *testing.T) {
	tf1 := newTestFile(t, 48_000, 1000, 21) // 48 chunks
	tf2 := newTestFile(t, 32_000, 1000, 22) // 32 chunks
	base1 := chunkQ6Baseline(t, tf1)
	base2 := chunkQ6Baseline(t, tf2)
	bases := [][]exec.Q6Result{base1, base2}
	tfs := []*TableFile{tf1, tf2}
	budget := 4*tf1.ChunkBytes() + 4*tf2.ChunkBytes() // forces evictions

	for _, pol := range core.Policies {
		t.Run(pol.String(), func(t *testing.T) {
			srv := newTestServer(t, ServerConfig{Policy: pol, BufferBytes: budget}, tf1, tf2)
			var wg sync.WaitGroup
			var mu sync.Mutex
			var errs []error
			const streamsPerTable = 4
			for table := 0; table < 2; table++ {
				table := table
				n := tfs[table].NumChunks()
				for s := 0; s < streamsPerTable; s++ {
					s := s
					start := (s * 5) % (n / 2)
					end := start + n/2
					want := exec.Q6Result{}
					for c := start; c < end; c++ {
						want.Add(bases[table][c])
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						var got exec.Q6Result
						st, err := srv.Scan(table, fmt.Sprintf("t%ds%d", table, s), rangeSet(start, end), Q6Cols(),
							func(c int, d ChunkData) { got.Add(Q6Chunk(d, exec.DefaultQ6())) })
						mu.Lock()
						defer mu.Unlock()
						if err != nil {
							errs = append(errs, err)
							return
						}
						if got != want {
							errs = append(errs, fmt.Errorf("t%ds%d: Q6 = %+v, want %+v", table, s, got, want))
						}
						if st.Chunks != end-start {
							errs = append(errs, fmt.Errorf("t%ds%d: %d chunks, want %d", table, s, st.Chunks, end-start))
						}
					}()
				}
			}
			wg.Wait()
			for _, err := range errs {
				t.Error(err)
			}
			stats := srv.Stats()
			if len(stats.Tables) != 2 {
				t.Fatalf("stats for %d tables", len(stats.Tables))
			}
			var granted int64
			for i, ts := range stats.Tables {
				if ts.ABM.Loads == 0 {
					t.Errorf("table %d (%s): no loads recorded", i, ts.Name)
				}
				granted += ts.BudgetBytes
			}
			if granted > budget {
				t.Errorf("granted budgets sum to %d, beyond the shared budget %d", granted, budget)
			}
			if stats.Pool.Misses == 0 {
				t.Error("no real I/O recorded in the shared pool")
			}
		})
	}
}

// Concurrent loads must commit correctly when completions land out of issue
// order: the hook sleeps longer for earlier-issued loads, so later reads
// overtake them inside the in-flight window. Run under -race in CI, this is
// the multi-entry load/commit/evict state machine's stress test.
func TestServerConcurrentLoadsOutOfOrder(t *testing.T) {
	tf1 := newTestFile(t, 48_000, 1000, 31)
	tf2 := newTestFile(t, 48_000, 1000, 32)
	base1 := chunkQ6Baseline(t, tf1)
	base2 := chunkQ6Baseline(t, tf2)
	srv := newTestServer(t, ServerConfig{
		Policy:        core.Relevance,
		BufferBytes:   6*tf1.ChunkBytes() + 6*tf2.ChunkBytes(),
		InFlightDepth: 4,
	}, tf1, tf2)

	var seq int64 // issue-ish sequence: order workers picked jobs up
	var inHook int64
	var maxInHook int64
	setLoadHook(srv, func(table, chunk int) {
		cur := atomic.AddInt64(&inHook, 1)
		for {
			old := atomic.LoadInt64(&maxInHook)
			if cur <= old || atomic.CompareAndSwapInt64(&maxInHook, old, cur) {
				break
			}
		}
		// Earlier pickups sleep longer: completions invert within the
		// in-flight window.
		n := atomic.AddInt64(&seq, 1)
		time.Sleep(time.Duration(8-(n%4)*2) * time.Millisecond)
		atomic.AddInt64(&inHook, -1)
	})

	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for table, base := range [][]exec.Q6Result{base1, base2} {
		table := table
		want := exec.Q6Result{}
		for _, r := range base {
			want.Add(r)
		}
		for s := 0; s < 4; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got exec.Q6Result
				_, err := srv.Scan(table, fmt.Sprintf("t%ds%d", table, s), rangeSet(0, 48), Q6Cols(),
					func(c int, d ChunkData) { got.Add(Q6Chunk(d, exec.DefaultQ6())) })
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs = append(errs, err)
				} else if got != want {
					errs = append(errs, fmt.Errorf("t%ds%d: Q6 = %+v, want %+v", table, s, got, want))
				}
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if got := atomic.LoadInt64(&maxInHook); got < 2 {
		t.Errorf("max concurrent in-flight loads observed = %d, want >= 2 (depth 4)", got)
	}
}

// Depth 1 must reproduce the one-read-at-a-time scheduler: the hook must
// never observe two loads in flight.
func TestServerDepthOneSerialisesLoads(t *testing.T) {
	tf := newTestFile(t, 24_000, 1000, 33)
	srv := newTestServer(t, ServerConfig{
		Policy:        core.Relevance,
		BufferBytes:   4 * tf.ChunkBytes(),
		InFlightDepth: 1,
	}, tf)
	var inHook int64
	var overlapped int64
	setLoadHook(srv, func(table, chunk int) {
		if atomic.AddInt64(&inHook, 1) > 1 {
			atomic.StoreInt64(&overlapped, 1)
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&inHook, -1)
	})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Scan(0, fmt.Sprintf("s%d", s), rangeSet(0, tf.NumChunks()), Q6Cols(), nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if atomic.LoadInt64(&overlapped) != 0 {
		t.Error("depth 1 allowed overlapping loads")
	}
}

// The budget arbiter splits the shared budget by table footprint and runs
// only when the table set changes: NewServer splits it, a long scan moves
// neither the grants nor the run count, an Attach re-splits it three ways
// and that table's detach re-splits it back.
func TestServerBudgetFollowsFootprint(t *testing.T) {
	big := newTestFile(t, 48_000, 1000, 41)
	small := newTestFile(t, 16_000, 1000, 42)
	mid := newTestFile(t, 32_000, 1000, 43)
	chunk := big.ChunkBytes()
	reg := obs.NewRegistry()
	// Enough budget that no table's usage reaches its share, so the
	// no-shrink-below-usage rule never bends the split.
	srv := newTestServer(t, ServerConfig{
		Policy:      core.Relevance,
		BufferBytes: 200 * chunk,
		Obs:         reg,
	}, big, small)

	grants := func() []int64 {
		var g []int64
		for _, ts := range srv.Stats().Tables {
			g = append(g, ts.BudgetBytes)
		}
		return g
	}
	runs := func() float64 { return scrapeMetrics(t, reg)["coopscan_arbiter_rebalances_total"] }
	// Above the two-chunk floor, every table's grant per chunk of footprint
	// is the same, to within the integer rounding of the split.
	footprintSplit := func(g []int64, chunks ...int64) {
		t.Helper()
		if len(g) != len(chunks) {
			t.Fatalf("grants %v, want %d tables", g, len(chunks))
		}
		for i := 1; i < len(g); i++ {
			d := (g[0]-2*chunk)*chunks[i] - (g[i]-2*chunk)*chunks[0]
			if d < -4*chunks[0]*chunks[i] || d > 4*chunks[0]*chunks[i] {
				t.Errorf("grants %v are not split %v by footprint", g, chunks)
			}
		}
	}

	start := grants()
	footprintSplit(start, 48, 16)
	if got := runs(); got != 1 {
		t.Errorf("arbiter runs after NewServer = %v, want 1", got)
	}

	// A slow consumer keeps a stream on the big table for the whole scan.
	if _, err := srv.Scan(0, "long", rangeSet(0, big.NumChunks()), Q6Cols(), func(int, ChunkData) {
		time.Sleep(time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if got := grants(); !slices.Equal(got, start) {
		t.Errorf("grants moved during a scan: %v -> %v", start, got)
	}
	if got := runs(); got != 1 {
		t.Errorf("arbiter runs after a scan = %v, want 1", got)
	}

	if _, err := srv.Attach("mid", mid); err != nil {
		t.Fatal(err)
	}
	footprintSplit(grants(), 48, 16, 32)
	if got := runs(); got != 2 {
		t.Errorf("arbiter runs after an Attach = %v, want 2", got)
	}
	if err := srv.DetachTable("mid"); err != nil {
		t.Fatal(err)
	}
	if got := grants(); !slices.Equal(got, start) {
		t.Errorf("grants after the detach = %v, want the two-table split %v again", got, start)
	}
	if got := runs(); got != 3 {
		t.Errorf("arbiter runs after a detach = %v, want 3", got)
	}
}

// AuditTables fails a table whose usage exceeds its grant. The arbiter never
// grants a table less than it uses and a load reserves only bytes its
// eviction pass made room for, so nothing drains an excess: the audit is
// where that is held.
func TestAuditTablesFailsTableOverItsGrant(t *testing.T) {
	tf := newTestFile(t, 8_000, 1000, 7)
	srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	if _, err := srv.Scan(0, "full", rangeSet(0, tf.NumChunks()), Q6Cols(), nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.AuditTables(); err != nil {
		t.Fatalf("audit after a scan: %v", err)
	}
	freeze(srv)
	a := srv.slots()[0].abm
	used := a.UsedBytes()
	if used <= tf.ChunkBytes() {
		thaw(srv)
		t.Fatalf("usage %d after a full scan, want more than one chunk resident", used)
	}
	a.SetBufferBytes(used - 1)
	thaw(srv)
	if err := srv.AuditTables(); err == nil {
		t.Fatal("AuditTables passed a table one byte over its grant")
	}
}

// retryPause doubles from the base per attempt up to 100 × base, jittered
// to [50%, 150%) of that.
func TestRetryPauseBounds(t *testing.T) {
	const base = 3 * time.Millisecond
	s := &Server{cfg: ServerConfig{RetryBackoff: base}}
	for attempt, want := range []time.Duration{base, 2 * base, 4 * base, 8 * base, 16 * base, 32 * base, 64 * base, 100 * base, 100 * base, 100 * base} {
		for range 50 {
			if d := s.retryPause(attempt); d < want/2 || d >= want*3/2 {
				t.Fatalf("retryPause(%d) = %v, want in [%v, %v)", attempt, d, want/2, want*3/2)
			}
		}
	}
}

// Frame tests: the one-part-one-frame invariant. Frame allocations are
// bounded by the buffer budget however many loads run, and every path that
// ends a load early — retry, abort, quarantine, shutdown — gives its frames
// back, checked by the frame audits in AuditTables and AuditDrained.
package engine

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/exec"
	"coopscan/internal/iofault"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// waitLoadsDrained blocks until no load is in flight.
func waitLoadsDrained(t *testing.T, srv *Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		n := srv.inFlight
		srv.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d loads still in flight", n)
		}
	}
}

// TestFrameAllocationsBounded is the leak regression: scans moving ten times
// the table through a four-chunk buffer may allocate, per frame size class,
// no more frames than the budget holds plus the in-flight depth — however
// many loads that takes — and the process may allocate only a small multiple
// of the budget, not of the bytes loaded. (Before parts owned their frames
// every NSM load allocated a fresh chunk-sized slab that nothing recycled:
// 37.8 MB allocated to load 35.8 MB here.)
func TestFrameAllocationsBounded(t *testing.T) {
	const rows, tpc, scans = 32_000, 1000, 10
	for _, format := range []Format{NSM, DSM} {
		t.Run(format.String(), func(t *testing.T) {
			tf := newTestFileFormat(t, format, rows, tpc, 61)
			base := chunkQ6Baseline(t, tf)
			reg := obs.NewRegistry()
			cfg := ServerConfig{Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes(), InFlightDepth: 4, Obs: reg}
			srv := newTestServer(t, cfg, tf)
			// On DSM alternate narrow scans with ones that drag the wide
			// comment column in, so both size classes churn.
			wide := Q6Cols().Add(ColComment)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < scans; i++ {
				cols := Q6Cols()
				if i%2 == 1 {
					cols = wide
				}
				var got exec.Q6Result
				if _, err := srv.Scan(0, fmt.Sprintf("scan%d", i), rangeSet(0, tf.NumChunks()), cols,
					func(c int, d ChunkData) { got.Add(Q6Chunk(d, exec.DefaultQ6())) }); err != nil {
					t.Fatal(err)
				}
				if want := sumQ6(base, 0, tf.NumChunks()); got != want {
					t.Fatalf("scan %d: Q6 = %+v, want %+v", i, got, want)
				}
			}
			runtime.ReadMemStats(&after)
			waitLoadsDrained(t, srv)
			if err := srv.AuditTables(); err != nil {
				t.Fatal(err)
			}

			st := srv.Stats()
			if st.Pool.BytesLoaded < scans*int64(tf.NumChunks())*tf.ColStripeBytes(0)*4 {
				t.Fatalf("only %d bytes loaded: the scans did not churn the buffer", st.Pool.BytesLoaded)
			}
			t.Logf("allocated %d bytes to load %d", after.TotalAlloc-before.TotalAlloc, st.Pool.BytesLoaded)
			if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > 4*cfg.BufferBytes {
				t.Errorf("process allocated %d bytes to load %d under a %d-byte budget: loads are not recycling frames",
					alloc, st.Pool.BytesLoaded, cfg.BufferBytes)
			}

			srv.mu.Lock()
			defer srv.mu.Unlock()
			held := make(map[int64]int) // size class -> frames resident
			for _, f := range partFrames(srv.tables[0]) {
				held[f.bytes()]++
			}
			total := 0
			for size, c := range srv.frames.classes {
				allocated := len(c.free) + held[size]
				total += allocated
				if limit := int(cfg.BufferBytes/size) + cfg.InFlightDepth; allocated > limit {
					t.Errorf("size class %d: %d frames allocated, want <= %d", size, allocated, limit)
				}
			}
			m := scrapeMetrics(t, reg)
			if int64(total) != srv.frames.allocs.n || m["coopscan_recycle_allocs_total"] != float64(total) {
				t.Errorf("allocs: classes hold %d frames, tally %d, scrape %v", total, srv.frames.allocs.n, m["coopscan_recycle_allocs_total"])
			}
			if gets := int(m["coopscan_recycle_gets_total"]); gets != st.Pool.Misses || gets < scans*tf.NumChunks() {
				t.Errorf("gets = %d, parts landed %d, want equal and >= %d", gets, st.Pool.Misses, scans*tf.NumChunks())
			}
		})
	}
}

// partFrames rebuilds the (part -> frame) view of a table from the ABM's
// part table — the only place the frames are held. Callers hold srv.mu.
func partFrames(tbl *serverTable) map[partID]*frame {
	out := make(map[partID]*frame)
	tbl.abm.EachPart(func(chunk, col int, _ int64, _ bool, f any) {
		if f != nil {
			out[partID{chunk: chunk, col: col}] = f.(*frame)
		}
	})
	return out
}

// TestFramesFreedWithLastTableOfClass checks that a size class's free frames
// go when the last table using it is finalised out of a detach, and stay
// while another table of the same geometry still draws from them.
func TestFramesFreedWithLastTableOfClass(t *testing.T) {
	const rows, tpc = 8_000, 1000
	tf0 := newTestFile(t, rows, tpc, 62)
	tfSame := newTestFile(t, rows, tpc, 63)
	tfSmall := newTestFile(t, rows, tpc/2, 64)
	srv := newTestServer(t, ServerConfig{Policy: core.Normal, BufferBytes: 8 * tf0.ChunkBytes()}, tf0)
	for name, tf := range map[string]*TableFile{"same": tfSame, "small": tfSmall} {
		slot, err := srv.Attach(name, tf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Scan(slot, name, rangeSet(0, tf.NumChunks()), Q6Cols(), nil); err != nil {
			t.Fatal(err)
		}
	}
	classes := func() map[int64]int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		out := make(map[int64]int)
		for size, c := range srv.frames.classes {
			out[size] = c.users
		}
		return out
	}
	if got := classes(); got[tf0.ChunkBytes()] != 2 || got[tfSmall.ChunkBytes()] != 1 {
		t.Fatalf("class users = %v, want 2 of %d and 1 of %d", got, tf0.ChunkBytes(), tfSmall.ChunkBytes())
	}
	for _, name := range []string{"same", "small"} {
		if err := srv.DetachTable(name); err != nil {
			t.Fatal(err)
		}
	}
	got := classes()
	if _, ok := got[tfSmall.ChunkBytes()]; ok || got[tf0.ChunkBytes()] != 1 {
		t.Errorf("class users after detach = %v, want only 1 of %d", got, tf0.ChunkBytes())
	}
	if err := srv.AuditTables(); err != nil {
		t.Error(err)
	}
}

// readCounter counts ReadAt calls per offset.
type readCounter struct {
	r     io.ReaderAt
	mu    sync.Mutex
	reads map[int64]int
}

func (c *readCounter) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.reads[off]++
	c.mu.Unlock()
	return c.r.ReadAt(p, off)
}

// TestAbortMidRetryReturnsFrames aims a persistent fault at one column part
// of a multi-column load: the sibling parts read once and keep their bytes
// across the retries (only the failing part is re-read), and when the load
// finally aborts every frame of the job — read or not — goes back.
func TestAbortMidRetryReturnsFrames(t *testing.T) {
	const retries = 3
	tf := newTestFileFormat(t, DSM, 8_000, 1000, 65)
	const badChunk = 2
	off, size := tf.PartFileRange(badChunk, ColTax)
	injectFaults(tf, iofault.Plan{BadRanges: []iofault.Range{{Off: off, Len: size}}}, 3)
	counter := &readCounter{reads: make(map[int64]int)}
	tf.WrapReader(func(r io.ReaderAt) io.ReaderAt { counter.r = r; return counter })
	srv, err := NewServer(ServerConfig{
		Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes(),
		LoadRetries: retries, RetryBackoff: 50 * time.Microsecond,
	}, tf)
	if err != nil {
		t.Fatal(err)
	}
	cols := storage.Cols(ColShipDate, ColDiscount, ColTax)
	if _, err := srv.Scan(0, "needs-bad", rangeSet(badChunk, badChunk+1), cols, nil); !errors.Is(err, ErrChunkUnavailable) {
		t.Fatalf("err = %v, want ErrChunkUnavailable", err)
	}
	waitLoadsDrained(t, srv)
	if err := srv.AuditTables(); err != nil {
		t.Errorf("audit after abort: %v", err)
	}
	counter.mu.Lock()
	if got := counter.reads[off]; got != retries+1 {
		t.Errorf("failing part read %d times, want %d", got, retries+1)
	}
	for _, col := range []int{ColShipDate, ColDiscount} {
		sib, _ := tf.PartFileRange(badChunk, col)
		if got := counter.reads[sib]; got != 1 {
			t.Errorf("sibling column %d read %d times, want once (its frame keeps the bytes across retries)", col, got)
		}
	}
	counter.mu.Unlock()
	srv.mu.Lock()
	if tbl := srv.tables[0]; tbl.framesOut != 0 || len(partFrames(tbl)) != 0 {
		t.Errorf("aborted load left %d frames outstanding, %d on parts", tbl.framesOut, len(partFrames(tbl)))
	}
	srv.mu.Unlock()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.AuditDrained(); err != nil {
		t.Error(err)
	}
}

// TestCloseWithLoadsInFlight closes the server while every worker holds a
// load: once parked between read and commit (those loads land, then Close
// returns their frames), once asleep in a retry backoff against a device
// that never heals (those loads abort). Either way no frame is stranded.
func TestCloseWithLoadsInFlight(t *testing.T) {
	t.Run("landing", func(t *testing.T) {
		tf := newTestFile(t, 16_000, 1000, 66)
		srv, err := NewServer(ServerConfig{Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes(), InFlightDepth: 2}, tf)
		if err != nil {
			t.Fatal(err)
		}
		parked := make(chan struct{}, 1)
		release := make(chan struct{})
		setLoadHook(srv, func(int, int) {
			select {
			case parked <- struct{}{}:
			default:
			}
			<-release
		})
		scanErr := make(chan error, 1)
		go func() {
			_, err := srv.Scan(0, "q", rangeSet(0, tf.NumChunks()), Q6Cols(), nil)
			scanErr <- err
		}()
		<-parked
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()
		// Close cannot finish while a worker is parked; let the loads land.
		select {
		case <-closed:
			t.Fatal("Close returned with a load still in flight")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-closed
		if err := <-scanErr; !errors.Is(err, ErrClosed) {
			t.Errorf("scan err = %v, want ErrClosed", err)
		}
		if err := srv.AuditDrained(); err != nil {
			t.Error(err)
		}
	})
	t.Run("retrying", func(t *testing.T) {
		tf := newTestFileFormat(t, DSM, 16_000, 1000, 67)
		injectFaults(tf, iofault.Plan{TransientProb: 1, TransientMax: 1 << 30}, 4)
		srv, err := NewServer(ServerConfig{
			Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes(),
			LoadRetries: 1 << 20, RetryBackoff: 2 * time.Millisecond,
		}, tf)
		if err != nil {
			t.Fatal(err)
		}
		scanErr := make(chan error, 1)
		go func() {
			_, err := srv.Scan(0, "q", rangeSet(0, tf.NumChunks()), Q6Cols(), nil)
			scanErr <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); srv.Stats().Faults.Retries == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no load ever retried")
			}
		}
		if err := srv.AuditTables(); err != nil {
			t.Errorf("audit mid-retry: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-scanErr; err == nil {
			t.Error("scan over a dead device finished cleanly")
		}
		if err := srv.AuditDrained(); err != nil {
			t.Error(err)
		}
		st := srv.Stats()
		if st.Pool.Misses != 0 || st.Pool.Resident != 0 {
			t.Errorf("parts landed from a device that never read: %+v", st.Pool)
		}
		// Shutdown cut the retries short; nothing showed the parts to be bad.
		if st.Faults.QuarantinedParts != 0 {
			t.Errorf("QuarantinedParts = %d after closing over transient faults only, want 0", st.Faults.QuarantinedParts)
		}
	})
}

// TestDetachThenCloseReturnsEachFrameOnce: a detached table's frames are
// released when the detach is finalised and Close walks the tombstone again;
// the second pass must find nothing, or a frame sits on its free list twice
// and two later loads would share one buffer.
func TestDetachThenCloseReturnsEachFrameOnce(t *testing.T) {
	const rows, tpc = 8_000, 1000
	tf0 := newTestFile(t, rows, tpc, 68)
	tfSame := newTestFile(t, rows, tpc, 69)
	srv, err := NewServer(ServerConfig{Policy: core.Normal, BufferBytes: 8 * tf0.ChunkBytes()}, tf0)
	if err != nil {
		t.Fatal(err)
	}
	slot, err := srv.Attach("same", tfSame)
	if err != nil {
		t.Fatal(err)
	}
	for i, tf := range []*TableFile{tf0, tfSame} {
		if _, err := srv.Scan(i, "warm", rangeSet(0, tf.NumChunks()), Q6Cols(), nil); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	if n := len(partFrames(srv.tables[slot])); n == 0 {
		t.Fatal("the warm scan left nothing resident on the table about to be detached")
	}
	srv.mu.Unlock()
	if err := srv.DetachTable("same"); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if tomb := srv.tables[slot]; tomb.framesOut != 0 || len(partFrames(tomb)) != 0 {
			t.Errorf("%s: tombstone has %d frames outstanding, %d on parts", when, tomb.framesOut, len(partFrames(tomb)))
		}
		seen := make(map[*frame]bool)
		for size, c := range srv.frames.classes {
			for _, f := range c.free {
				if seen[f] {
					t.Errorf("%s: size class %d holds one frame twice", when, size)
				}
				seen[f] = true
			}
		}
		// tf0 keeps the one size class alive, so every frame ever allocated
		// is either on a part of tf0 or free — exactly once.
		if got, want := int64(len(seen)+len(partFrames(srv.tables[0]))), srv.frames.allocs.n; got != want {
			t.Errorf("%s: %d frames accounted for, %d allocated", when, got, want)
		}
	}
	check("after detach")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")
	if err := srv.AuditDrained(); err != nil {
		t.Error(err)
	}
}

// TestFrameAuditsCatchCorruption corrupts a healthy one-part table directly
// and requires the audits to name each damage: the checks that used to
// compare the engine's frame map against the ABM's parts now read the one
// part table, and must not have become weaker on the way.
func TestFrameAuditsCatchCorruption(t *testing.T) {
	tf := newTestFile(t, 4_000, 1000, 70)
	// healthy builds a server around one table with chunk 0 landed on a frame
	// of the right size and q registered over the whole table.
	healthy := func(f *frame) (*Server, *serverTable, *core.Query) {
		abm := core.NewLiveManager(wallClock{start: time.Now()}, core.Config{Policy: core.Normal}).
			AttachAs("t", tf.Layout(), 2*tf.ChunkBytes())
		q := abm.NewQuery("q", rangeSet(0, tf.NumChunks()), Q6Cols())
		abm.Register(q)
		abm.IssueLoad(nil).Finish(f)
		tbl := &serverTable{tf: tf, abm: abm, name: "t", framesOut: 1}
		return &Server{tables: []*serverTable{tbl}}, tbl, q
	}
	whole := func() *frame { return &frame{vals: make([]int64, tf.ChunkBytes()/8)} }
	if srv, _, _ := healthy(whole()); srv.AuditTables() != nil || srv.AuditDrained() != nil {
		t.Fatalf("healthy table fails its audits: %v / %v", srv.AuditTables(), srv.AuditDrained())
	}
	for _, tc := range []struct {
		name    string
		frame   *frame
		corrupt func(*Server, *serverTable, *core.Query)
		audit   func(*Server) error
		want    string
	}{
		{"resident part without a frame", whole(),
			func(_ *Server, tbl *serverTable, _ *core.Query) { tbl.abm.ReleaseFrames(func(any) {}) },
			(*Server).AuditTables, "has no frame"},
		{"frame of the wrong size", &frame{vals: make([]int64, 1)},
			func(*Server, *serverTable, *core.Query) {},
			(*Server).AuditTables, "frame 8 bytes"},
		{"frames drawn != resident + loading", whole(),
			func(_ *Server, tbl *serverTable, _ *core.Query) { tbl.framesOut++ },
			(*Server).AuditTables, "2 frames outstanding, 1 on resident parts + 0 loading"},
		{"frame stranded on a load job after drain", whole(),
			func(_ *Server, tbl *serverTable, _ *core.Query) { tbl.framesOut++ },
			(*Server).AuditDrained, "2 frames outstanding"},
		{"pin left after drain", whole(),
			func(_ *Server, tbl *serverTable, q *core.Query) { tbl.abm.Pin(q, 0, nil) },
			(*Server).AuditDrained, "pins after drain"},
		{"frame left on a detached slot", whole(),
			func(_ *Server, tbl *serverTable, _ *core.Query) { tbl.detached = true },
			(*Server).AuditDrained, "released table t: part (0,-1) still carries a frame"},
		{"frame left after Close", whole(),
			func(srv *Server, _ *serverTable, _ *core.Query) { srv.closed = true },
			(*Server).AuditDrained, "released table t: part (0,-1) still carries a frame"},
	} {
		srv, tbl, q := healthy(tc.frame)
		tc.corrupt(srv, tbl, q)
		if err := tc.audit(srv); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/exec"
)

// TestScanCancellationStorm is the 4k-stream-scale cancellation test: 2000
// in-flight streams over one table, 1000 of them cancelled after their
// first delivery, plus 250 whose context is cancelled before they call
// ScanWith, so they finish while still queued for admission. The storm must
// not leak, and what the server owns is checked exactly after each storm:
// no frame outstanding, the drained-state audit (no stranded pins or
// budget), every goroutine gone. The mid-flight audit holds while the
// cancellations tear queries out of the scheduler and its queues, and every
// surviving stream's result stays byte-identical to the fault-free golden.
//
// The heap is read over a second storm in the same process. Over a
// process's first storm under the race detector, beside other race tests,
// HeapInuse grew by up to 1.1 MiB, most of it the runtime's own first-use
// state (race-detector shadow, allocator caches); later storms in one
// process read -0.29 to +0.06 MiB. heapSlack stays the bound: over the
// second storm, a server still referenced after Close keeps 1.44 MiB.
func TestScanCancellationStorm(t *testing.T) {
	const heapSlack = 1 << 20
	tf := newTestFile(t, 16_000, 1000, 77)
	base := chunkQ6Baseline(t, tf)
	g0 := runtime.NumGoroutine()
	// The runtime keeps every goroutine descriptor it ever made for reuse:
	// the warm-up storm makes the storm's worth first.
	cancellationStorm(t, tf, base, g0)
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	heap0 := mem.HeapInuse
	cancellationStorm(t, tf, base, g0)
	runtime.GC()
	runtime.ReadMemStats(&mem)
	t.Logf("HeapInuse over the second storm %d -> %d bytes (%+d)", heap0, mem.HeapInuse, int64(mem.HeapInuse)-int64(heap0))
	if grown := int64(mem.HeapInuse) - int64(heap0); grown > heapSlack {
		t.Errorf("HeapInuse grew %d bytes over the second storm, more than %d", grown, heapSlack)
	}
}

// cancellationStorm runs one storm on a new server over tf, checks every
// stream's outcome, closes the server and checks that nothing it owned
// outlives it: no frame drawn and not returned, the drained audit, and no
// goroutine beyond the g0 the process started with.
func cancellationStorm(t *testing.T, tf *TableFile, base []exec.Q6Result, g0 int) {
	t.Helper()
	const streams, queued = 2000, 250
	n := tf.NumChunks()

	type stream struct {
		a, b              int
		cancel, preCancel bool
	}
	plans := make([]stream, streams+queued)
	for i := range plans {
		a := i % (n - 3)
		b := a + 3 + i%(n-a-2)
		plans[i] = stream{a: a, b: b, cancel: i%2 == 1 && i < streams, preCancel: i >= streams}
	}
	errs := make([]error, len(plans))
	results := make([]exec.Q6Result, len(plans))
	delivered := make([]int, len(plans))

	srv, err := NewServer(ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := range plans {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := plans[i]
			ctx := context.Background()
			var cancel context.CancelFunc
			if st.cancel || st.preCancel {
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			if st.preCancel {
				cancel()
			}
			_, errs[i] = srv.ScanWith(ctx, ScanRequest{Name: fmt.Sprintf("s%d", i), Ranges: rangeSet(st.a, st.b), Cols: Q6Cols()}, func(c int, d ChunkData) {
				delivered[i]++
				results[i].Add(Q6Chunk(d, exec.DefaultQ6()))
				if st.cancel {
					cancel()
				}
			})
		}()
	}

	// Audit while the storm is in flight: cancellations are ripping queries
	// out of the incremental scheduler state the whole time.
	auditDone := make(chan struct{})
	var auditErr error
	var auditWG sync.WaitGroup
	auditWG.Add(1)
	go func() {
		defer auditWG.Done()
		for {
			select {
			case <-auditDone:
				return
			case <-time.After(time.Millisecond):
			}
			if err := srv.AuditTables(); err != nil && auditErr == nil {
				auditErr = err
			}
		}
	}()
	wg.Wait()
	close(auditDone)
	auditWG.Wait()
	if auditErr != nil {
		t.Fatalf("mid-storm audit: %v", auditErr)
	}

	cancelled := 0
	for i, st := range plans {
		if st.cancel || st.preCancel {
			cancelled++
			if !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("stream %d: err = %v, want context.Canceled", i, errs[i])
			}
			if st.preCancel && delivered[i] != 0 {
				t.Fatalf("stream %d, cancelled before it started, delivered %d chunks", i, delivered[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if want := sumQ6(base, st.a, st.b); results[i] != want {
			t.Fatalf("stream %d: Q6 = %+v, want golden %+v", i, results[i], want)
		}
		if delivered[i] != st.b-st.a {
			t.Fatalf("stream %d delivered %d chunks, want %d", i, delivered[i], st.b-st.a)
		}
	}
	if got := srv.Stats().Faults.CancelledScans; int(got) != cancelled {
		t.Errorf("CancelledScans = %d, want %d", got, cancelled)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.AuditDrained(); err != nil {
		t.Errorf("drained audit after storm: %v", err)
	}
	for _, st := range *srv.tables.Load() {
		st.mu.Lock()
		if st.framesOut != 0 {
			t.Errorf("table %s: %d frames outstanding after Close", st.name, st.framesOut)
		}
		st.mu.Unlock()
	}

	// Every stream, watcher, worker and scheduler goroutine must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= g0+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, started with %d\n%s",
				runtime.NumGoroutine(), g0, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

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
// not leak — goroutine count returns to the pre-server level, the heap to
// within heapSlack of it, the mid-flight audit holds while the cancellations
// tear queries out of the scheduler and its queues, the drained-state audit
// finds no stranded pins or budget after Close — and every surviving
// stream's result stays byte-identical to the fault-free golden.
func TestScanCancellationStorm(t *testing.T) {
	// heapSlack: on 2 vCPUs, twenty runs (ten under -race) grew HeapInuse
	// by 272-448 KiB — allocator caches and runtime bookkeeping — while a
	// server still referenced after Close keeps 2.2-2.5 MiB.
	const (
		streams   = 2000
		queued    = 250
		rows      = 16_000
		tpc       = 1000
		heapSlack = 1 << 20
	)
	tf := newTestFile(t, rows, tpc, 77)
	base := chunkQ6Baseline(t, tf)
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

	g0 := runtime.NumGoroutine()
	// The runtime keeps every goroutine descriptor it ever made for reuse:
	// make the storm's worth first, so the heap check below sees the server.
	var warm sync.WaitGroup
	for i := 0; i < len(plans)+16; i++ {
		warm.Add(1)
		go func() { defer warm.Done(); time.Sleep(time.Millisecond) }()
	}
	warm.Wait()
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	heap0 := mem.HeapInuse
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

	// Nothing the server held may outlive it: no queued query, no frame.
	srv = nil
	clear(errs)
	runtime.GC()
	runtime.ReadMemStats(&mem)
	t.Logf("HeapInuse %d -> %d bytes (%+d)", heap0, mem.HeapInuse, int64(mem.HeapInuse)-int64(heap0))
	if grown := int64(mem.HeapInuse) - int64(heap0); grown > heapSlack {
		t.Errorf("HeapInuse grew %d bytes over the storm, more than %d", grown, heapSlack)
	}
}

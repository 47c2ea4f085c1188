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
// first delivery. The storm must not leak — goroutine count returns to the
// pre-server level, the mid-flight audit holds while the cancellations
// tear queries out of the scheduler, the drained-state audit finds no
// stranded pins or budget after Close — and every surviving stream's
// result stays byte-identical to the fault-free golden.
func TestScanCancellationStorm(t *testing.T) {
	const (
		streams = 2000
		rows    = 16_000
		tpc     = 1000
	)
	tf := newTestFile(t, rows, tpc, 77)
	base := chunkQ6Baseline(t, tf)
	n := tf.NumChunks()

	g0 := runtime.NumGoroutine()
	srv, err := NewServer(ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	if err != nil {
		t.Fatal(err)
	}

	type stream struct {
		a, b   int
		cancel bool
	}
	plans := make([]stream, streams)
	for i := range plans {
		a := i % (n - 3)
		b := a + 3 + i%(n-a-2)
		plans[i] = stream{a: a, b: b, cancel: i%2 == 1}
	}

	var wg sync.WaitGroup
	errs := make([]error, streams)
	results := make([]exec.Q6Result, streams)
	delivered := make([]int, streams)
	for i := range plans {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := plans[i]
			ctx := context.Background()
			var cancel context.CancelFunc
			if st.cancel {
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
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
		if st.cancel {
			cancelled++
			if !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("stream %d: err = %v, want context.Canceled", i, errs[i])
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
}

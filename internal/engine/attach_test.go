package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/exec"
)

// TestAttachDetachLifecycle walks the full runtime table lifecycle: attach a
// second table to a serving server, scan it, detach it (typed errors for
// late scans, name freed, budget returned), then reattach the same name to
// a fresh slot and scan again. The drained audit must stay clean with a
// tombstoned slot in the table list.
func TestAttachDetachLifecycle(t *testing.T) {
	const rows, tpc = 16_000, 1000
	tf0 := newTestFile(t, rows, tpc, 3)
	tf1 := newTestFile(t, rows, tpc, 4)
	base1 := chunkQ6Baseline(t, tf1)
	n := tf1.NumChunks()

	srv, err := NewServer(ServerConfig{Policy: core.Relevance, BufferBytes: 8 * tf0.ChunkBytes()}, tf0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	slot, err := srv.Attach("extra", tf1)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if got, ok := srv.Lookup("extra"); !ok || got != slot {
		t.Fatalf("Lookup(extra) = %d, %v; want %d, true", got, ok, slot)
	}
	var got exec.Q6Result
	if _, err := srv.Scan(slot, "s1", rangeSet(0, n), Q6Cols(), func(c int, d ChunkData) {
		got.Add(Q6Chunk(d, exec.DefaultQ6()))
	}); err != nil {
		t.Fatalf("scan attached table: %v", err)
	}
	if want := sumQ6(base1, 0, n); got != want {
		t.Fatalf("attached-table Q6 = %+v, want %+v", got, want)
	}

	if err := srv.DetachTable("extra"); err != nil {
		t.Fatalf("DetachTable: %v", err)
	}
	if _, ok := srv.Lookup("extra"); ok {
		t.Fatal("detached name still resolves")
	}
	if _, err := srv.Scan(slot, "late", rangeSet(0, n), Q6Cols(), nil); !errors.Is(err, ErrTableDetached) {
		t.Fatalf("scan against detached slot: err = %v, want ErrTableDetached", err)
	}
	if b := srv.Budgets(); b[slot] != 0 {
		t.Fatalf("detached slot still holds budget %d", b[slot])
	}
	if err := srv.DetachTable("extra"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("double detach: err = %v, want ErrUnknownTable", err)
	}

	// The freed name binds to a fresh slot; the tombstone is never reused.
	slot2, err := srv.Attach("extra", tf1)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if slot2 == slot {
		t.Fatalf("reattach reused tombstoned slot %d", slot)
	}
	got = exec.Q6Result{}
	if _, err := srv.Scan(slot2, "s2", rangeSet(0, n), Q6Cols(), func(c int, d ChunkData) {
		got.Add(Q6Chunk(d, exec.DefaultQ6()))
	}); err != nil {
		t.Fatalf("scan reattached table: %v", err)
	}
	if want := sumQ6(base1, 0, n); got != want {
		t.Fatalf("reattached-table Q6 = %+v, want %+v", got, want)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.AuditDrained(); err != nil {
		t.Errorf("drained audit with tombstoned slot: %v", err)
	}
}

// TestDetachUnderTraffic detaches a table while dozens of streams scan both
// it and a survivor table. Streams on the detached table must finish clean
// or fail with ErrTableDetached (nothing else), the survivor's streams must
// stay byte-identical to golden, and the drain must leak nothing.
func TestDetachUnderTraffic(t *testing.T) {
	const rows, tpc, streams = 16_000, 1000, 64
	tf0 := newTestFile(t, rows, tpc, 5)
	tf1 := newTestFile(t, rows, tpc, 6)
	base0 := chunkQ6Baseline(t, tf0)
	n := tf0.NumChunks()

	srv, err := NewServer(ServerConfig{Policy: core.Relevance, BufferBytes: 8 * tf0.ChunkBytes()}, tf0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	slot, err := srv.Attach("victim", tf1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, streams)
	results := make([]exec.Q6Result, streams)
	start := make(chan struct{})
	for i := 0; i < streams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			table := 0
			if i%2 == 1 {
				table = slot
			}
			_, errs[i] = srv.Scan(table, fmt.Sprintf("s%d", i), rangeSet(0, n), Q6Cols(), func(c int, d ChunkData) {
				results[i].Add(Q6Chunk(d, exec.DefaultQ6()))
			})
		}()
	}
	close(start)
	if err := srv.DetachTable("victim"); err != nil {
		t.Fatalf("DetachTable under traffic: %v", err)
	}
	wg.Wait()

	want := sumQ6(base0, 0, n)
	for i := 0; i < streams; i++ {
		if i%2 == 0 {
			if errs[i] != nil {
				t.Fatalf("survivor stream %d: %v", i, errs[i])
			}
			if results[i] != want {
				t.Fatalf("survivor stream %d: Q6 = %+v, want %+v", i, results[i], want)
			}
			continue
		}
		if errs[i] != nil && !errors.Is(errs[i], ErrTableDetached) {
			t.Fatalf("victim stream %d: err = %v, want nil or ErrTableDetached", i, errs[i])
		}
	}
	if err := srv.AuditTables(); err != nil {
		t.Fatalf("audit after detach under traffic: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.AuditDrained(); err != nil {
		t.Errorf("drained audit: %v", err)
	}
}

// TestAttachTypedErrors covers Attach's rejection paths: duplicate names,
// empty names, budget floors and closed servers.
func TestAttachTypedErrors(t *testing.T) {
	const rows, tpc = 8_000, 1000
	tf0 := newTestFile(t, rows, tpc, 7)
	srv, err := NewServer(ServerConfig{Policy: core.Relevance, BufferBytes: 5 * tf0.ChunkBytes()}, tf0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	name0 := srv.TableName(0)
	if _, err := srv.Attach(name0, tf0); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate name: err = %v, want ErrTableExists", err)
	}
	if _, err := srv.Attach("", tf0); !errors.Is(err, ErrAttachIncompatible) {
		t.Errorf("empty name: err = %v, want ErrAttachIncompatible", err)
	}
	// Budget 5 chunks covers the floor for two tables (4 chunks) but not
	// three: the second extra table must be rejected, typed.
	tfA := newTestFile(t, rows, tpc, 8)
	if _, err := srv.Attach("a", tfA); err != nil {
		t.Fatalf("Attach within budget: %v", err)
	}
	tfB := newTestFile(t, rows, tpc, 9)
	if _, err := srv.Attach("b", tfB); !errors.Is(err, ErrAttachIncompatible) {
		t.Errorf("over budget floor: err = %v, want ErrAttachIncompatible", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Attach("late", tfA); !errors.Is(err, ErrClosed) {
		t.Errorf("attach after close: err = %v, want ErrClosed", err)
	}
	if err := srv.DetachTable("a"); !errors.Is(err, ErrClosed) {
		t.Errorf("detach after close: err = %v, want ErrClosed", err)
	}
	// NewServer admits its tables through the same step.
	if _, err := NewServer(ServerConfig{BufferBytes: 3 * tf0.ChunkBytes()}, tf0, tfA); !errors.Is(err, ErrAttachIncompatible) {
		t.Errorf("NewServer under the budget floor: err = %v, want ErrAttachIncompatible", err)
	}
}

// TestAttachSmallerChunks attaches a table whose chunks — and so its
// frames — are a quarter the size of the resident table's, and scans both
// concurrently under the one budget: frames are drawn per part size, so
// chunk geometry is no attach restriction.
func TestAttachSmallerChunks(t *testing.T) {
	const rows, tpc = 16_000, 1000
	tf0 := newTestFile(t, rows, tpc, 7)
	tfSmall := newTestFile(t, rows, tpc/4, 10)
	srv, err := NewServer(ServerConfig{Policy: core.Relevance, BufferBytes: 5 * tf0.ChunkBytes()}, tf0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	small, err := srv.Attach("small", tfSmall)
	if err != nil {
		t.Fatalf("Attach with smaller chunks: %v", err)
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, tf := range []*TableFile{tf0, tfSmall} {
			table := []int{0, small}[i]
			want := exec.Q6Result{}
			for _, r := range chunkQ6Baseline(t, tf) {
				want.Add(r)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got exec.Q6Result
				if _, err := srv.Scan(table, fmt.Sprintf("t%dr%d", table, round), rangeSet(0, tf.NumChunks()), Q6Cols(),
					func(c int, d ChunkData) { got.Add(Q6Chunk(d, exec.DefaultQ6())) }); err != nil {
					t.Errorf("scan table %d: %v", table, err)
				} else if got != want {
					t.Errorf("table %d: Q6 = %+v, want %+v", table, got, want)
				}
			}()
		}
	}
	wg.Wait()
	if err := srv.AuditTables(); err != nil {
		t.Errorf("audit: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.AuditDrained(); err != nil {
		t.Errorf("drained audit: %v", err)
	}
}

// TestScanWithWeight drives weighted scans through the live server: the
// weight plumbs through to the relevance scheduler without disturbing
// results, and negative weights are rejected typed.
func TestScanWithWeight(t *testing.T) {
	const rows, tpc = 16_000, 1000
	tf := newTestFile(t, rows, tpc, 12)
	base := chunkQ6Baseline(t, tf)
	n := tf.NumChunks()
	srv, err := NewServer(ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "bad", Ranges: rangeSet(0, n), Cols: Q6Cols(), Weight: -1}, nil); !errors.Is(err, ErrInvalidWeight) {
		t.Fatalf("negative weight: err = %v, want ErrInvalidWeight", err)
	}

	const streams = 16
	var wg sync.WaitGroup
	errs := make([]error, streams)
	results := make([]exec.Q6Result, streams)
	for i := 0; i < streams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := 1.0
			if i%4 == 0 {
				w = 8.0 // interactive tier
			}
			_, errs[i] = srv.ScanWith(context.Background(), ScanRequest{
				Name: fmt.Sprintf("s%d", i), Ranges: rangeSet(0, n), Cols: Q6Cols(), Weight: w,
			}, func(c int, d ChunkData) {
				results[i].Add(Q6Chunk(d, exec.DefaultQ6()))
			})
		}()
	}
	wg.Wait()
	want := sumQ6(base, 0, n)
	for i := 0; i < streams; i++ {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if results[i] != want {
			t.Fatalf("stream %d: Q6 = %+v, want %+v", i, results[i], want)
		}
	}
	if err := srv.AuditTables(); err != nil {
		t.Fatalf("audit with mixed weights: %v", err)
	}
}

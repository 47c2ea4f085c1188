package serve

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
)

// TestClientDisconnectStorm drops 750 of 1000 HTTP clients mid-stream and
// verifies the front-end survives: every session is accounted admitted and
// then either completed or disconnected, the surviving quarter stream
// byte-identical (per-chunk CRC) results, the drain leaks no budget, and
// the goroutine count returns to baseline.
func TestClientDisconnectStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test in -short mode")
	}
	g0 := runtime.NumGoroutine()

	tf := newTestTable(t, 4_000, 500, 31)
	crcs, _ := goldenScan(t, tf, engine.Q6Cols())
	nChunks := tf.NumChunks()

	eng, err := engine.NewServer(engine.ServerConfig{
		Policy:      core.Relevance,
		BufferBytes: 4 * tf.ChunkBytes(),
		// Throttle loads so chunk receipts trickle out over tens of
		// milliseconds — long enough that a client vanishing after its
		// first chunk leaves the server genuinely mid-scan.
		ReadBandwidth: 8 << 20,
	}, tf)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Engine:       eng,
		MaxLive:      64,
		MaxQueue:     2000, // nothing sheds; this storm is about disconnects
		Heartbeat:    50 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	table := eng.TableName(0)

	const clients = 1000
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var survived, surviveErrs int
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("storm-%d", i)
			if i%4 == 0 {
				// Survivor: full stream, golden-verified.
				res, err := RunScan(context.Background(), client, ts.URL, ScanParams{Table: table, Name: name}, nil)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					surviveErrs++
					t.Errorf("survivor %d: %v", i, err)
					return
				}
				if len(res.Chunks) != nChunks {
					surviveErrs++
					t.Errorf("survivor %d: %d chunks, want %d", i, len(res.Chunks), nChunks)
					return
				}
				for _, c := range res.Chunks {
					if crcs[c.Chunk] != c.CRC {
						surviveErrs++
						t.Errorf("survivor %d: chunk %d CRC mismatch", i, c.Chunk)
						return
					}
				}
				survived++
				return
			}
			// Disconnector: read the header and first chunk, then hang up.
			resp, err := client.Get(ts.URL + "/scan?name=" + name + "&table=" + url.QueryEscape(table))
			if err != nil {
				return
			}
			br := bufio.NewReader(resp.Body)
			br.ReadString('\n')
			br.ReadString('\n')
			resp.Body.Close()
		}()
	}
	wg.Wait()

	// The clients returning is not the accounting barrier: a handler whose
	// client hung up records its outcome only when its scan ends, cancelled
	// by the failed write or the request's context, or run to its end behind
	// the writer. A handler records before it releases its admission slot,
	// so the gate running empty is.
	waitFor(t, func() bool {
		ss := f.Sessions()
		return ss.Live == 0 && ss.Queued == 0
	})
	ss := f.Sessions()
	b := ss.Tiers["batch"]
	if b.Admitted != clients {
		t.Errorf("admitted %d, want all %d (queue was unbounded for this storm)", b.Admitted, clients)
	}
	if b.Shed != 0 || b.DeadlineExceeded != 0 {
		t.Errorf("unexpected shed=%d deadline=%d", b.Shed, b.DeadlineExceeded)
	}
	if b.Completed+b.Disconnected != clients {
		t.Errorf("completed %d + disconnected %d != %d admitted sessions", b.Completed, b.Disconnected, clients)
	}
	if survived != clients/4 {
		t.Errorf("%d survivors verified (%d errors), want %d", survived, surviveErrs, clients/4)
	}

	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := eng.AuditDrained(); err != nil {
		t.Errorf("drained audit after storm: %v", err)
	}
	ts.Close()

	// Every session handler, session writer and context watcher must be
	// gone: the goroutine count returns to (about) the pre-storm baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= g0+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after storm drain\n%s", runtime.NumGoroutine(), g0, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

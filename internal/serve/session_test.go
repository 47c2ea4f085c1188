package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"coopscan/internal/engine"
)

// stallWriter is a ResponseWriter for a client that stops reading: every
// Write blocks until hold is closed. With a write deadline set, a Write
// still blocked at the deadline fails, as a real connection's would.
type stallWriter struct {
	hdr  http.Header
	hold chan struct{}

	mu       sync.Mutex
	buf      bytes.Buffer
	deadline time.Time
}

func newStallWriter() *stallWriter {
	return &stallWriter{hdr: make(http.Header), hold: make(chan struct{})}
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}

func (w *stallWriter) SetWriteDeadline(t time.Time) error {
	w.mu.Lock()
	w.deadline = t
	w.mu.Unlock()
	return nil
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	deadline := w.deadline
	w.mu.Unlock()
	var expired <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-w.hold:
	case <-expired:
		return 0, os.ErrDeadlineExceeded
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// streamLines GETs a /scan stream and returns its NDJSON lines.
func streamLines(t *testing.T, rawURL string) []string {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// heartbeats counts the lines that are heartbeats, each checked to be the
// wire's heartbeat receipt.
func heartbeats(t *testing.T, lines []string) int {
	t.Helper()
	n := 0
	for _, l := range lines {
		if !strings.Contains(l, `"hb"`) {
			continue
		}
		var c Chunk
		if err := json.Unmarshal([]byte(l), &c); err != nil || !c.HB || c.Chunk != -1 {
			t.Fatalf("bad heartbeat line %q", l)
		}
		n++
	}
	return n
}

// TestHeartbeatFollowsIdle: the writer sends a heartbeat only after
// Config.Heartbeat with no line written. A scan held back by a throttled
// table (a chunk every ~100 ms against a 20 ms interval) gets heartbeats
// between its receipts; a scan that streams a receipt every ~10 ms for
// longer than a 150 ms interval gets none.
func TestHeartbeatFollowsIdle(t *testing.T) {
	t.Run("held back", func(t *testing.T) {
		tf := newTestTable(t, 3_000, 1000, 41)
		fx := newFixture(t, engine.ServerConfig{ReadBandwidth: 1 << 20, InFlightDepth: 1}, Config{Heartbeat: 20 * time.Millisecond}, tf)
		lines := streamLines(t, fx.url+"/scan?table="+url.QueryEscape(fx.eng.TableName(0)))
		if n := heartbeats(t, lines); n == 0 {
			t.Errorf("no heartbeat in a scan with ~100 ms between receipts and a 20 ms interval:\n%s", strings.Join(lines, "\n"))
		}
		fx.shutdown(t, context.Background())
	})
	t.Run("streaming", func(t *testing.T) {
		const hb = 150 * time.Millisecond
		tf := newTestTable(t, 8_000, 100, 42)
		fx := newFixture(t, engine.ServerConfig{ReadBandwidth: 1 << 20, InFlightDepth: 1}, Config{Heartbeat: hb}, tf)
		start := time.Now()
		lines := streamLines(t, fx.url+"/scan?table="+url.QueryEscape(fx.eng.TableName(0)))
		if el := time.Since(start); el < 2*hb {
			t.Fatalf("scan took %v: too short to tell an idle heartbeat from a ticking one", el)
		}
		if n := heartbeats(t, lines); n != 0 {
			t.Errorf("%d heartbeats in a scan whose receipts never paused for %v", n, hb)
		}
		fx.shutdown(t, context.Background())
	})
}

// TestStalledClientHoldsNoPin: a client that reads nothing cannot hold
// the scan. With every write blocked, the session's scan runs to its end
// and leaves no part pinned; once the client reads again it gets the whole
// stream, equal to the reference.
func TestStalledClientHoldsNoPin(t *testing.T) {
	tf := newTestTable(t, 16_000, 1000, 43)
	crcs, agg := goldenScan(t, tf, engine.Q6Cols())
	fx := newFixture(t, engine.ServerConfig{}, Config{MaxLive: 2, WriteTimeout: -1}, tf)
	w := newStallWriter()
	released := false
	t.Cleanup(func() {
		if !released {
			close(w.hold)
		}
	})
	served := make(chan struct{})
	go func() {
		defer close(served)
		r := httptest.NewRequest(http.MethodGet, "/scan?agg=q6&table="+url.QueryEscape(fx.eng.TableName(0)), nil)
		fx.f.Handler().ServeHTTP(w, r)
	}()

	// The slot is given back once the outcome is recorded, after the scan.
	waitFor(t, func() bool {
		ss := fx.f.Sessions()
		return ss.Live == 0 && ss.Tiers["batch"].Completed == 1
	})
	if p := fx.eng.Stats().Pool.Pinned; p != 0 {
		t.Errorf("%d parts pinned after the scan ended behind a stalled client", p)
	}
	select {
	case <-served:
		t.Fatal("the handler returned before its client read anything")
	default:
	}
	close(w.hold)
	released = true
	<-served

	lines := strings.Split(strings.TrimSuffix(w.buf.String(), "\n"), "\n")
	var hdr Header
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Table != fx.eng.TableName(0) {
		t.Fatalf("bad header %q: %v", lines[0], err)
	}
	var tr Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	if !tr.Done || tr.Chunks != tf.NumChunks() || tr.Tuples != tf.Rows() || tr.Q6Revenue != agg.Revenue || tr.Q6Rows != agg.Rows {
		t.Errorf("trailer %+v, want done with %d chunks, %d tuples and Q6 (%d, %d)", tr, tf.NumChunks(), tf.Rows(), agg.Revenue, agg.Rows)
	}
	seen := make(map[int]bool)
	for _, l := range lines[1 : len(lines)-1] {
		var c Chunk
		if err := json.Unmarshal([]byte(l), &c); err != nil {
			t.Fatalf("bad receipt %q: %v", l, err)
		}
		if c.HB {
			continue
		}
		if want, ok := crcs[c.Chunk]; !ok || c.CRC != want || seen[c.Chunk] {
			t.Fatalf("receipt %q: want one receipt per chunk with CRC %d", l, want)
		}
		seen[c.Chunk] = true
	}
	if len(seen) != tf.NumChunks() {
		t.Errorf("%d receipts, want %d", len(seen), tf.NumChunks())
	}
	fx.shutdown(t, context.Background())
}

// TestWriteTimeoutCancelsScan: a client that stops reading blows the
// write deadline; the failed write cancels the scan, the session counts
// as disconnected and the engine drains clean.
func TestWriteTimeoutCancelsScan(t *testing.T) {
	tf := newTestTable(t, 6_000, 1000, 44)
	// ~670 KB at 512 KiB/s keeps the scan going well past the deadline.
	fx := newFixture(t, engine.ServerConfig{ReadBandwidth: 1 << 19}, Config{WriteTimeout: 50 * time.Millisecond}, tf)
	w := newStallWriter()
	r := httptest.NewRequest(http.MethodGet, "/scan?table="+url.QueryEscape(fx.eng.TableName(0)), nil)
	start := time.Now()
	fx.f.Handler().ServeHTTP(w, r)
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("handler took %v behind a 50 ms write deadline", el)
	}
	b := fx.f.Sessions().Tiers["batch"]
	if b.Disconnected != 1 || b.Completed != 0 {
		t.Errorf("batch counters %+v, want disconnected=1 completed=0", b)
	}
	if w.buf.Len() != 0 {
		t.Errorf("a stalled client was sent %q", w.buf.String())
	}
	fx.shutdown(t, context.Background())
}

// TestBackToBackScansFindTheirSlot: one client asking again the moment it
// reads a trailer never meets its own previous session in the gate. The
// slot is given back before the trailer is queued, so with one live slot
// and no queue none of these scans is shed.
func TestBackToBackScansFindTheirSlot(t *testing.T) {
	const scans = 2000
	tf := newTestTable(t, 2_000, 1000, 45)
	fx := newFixture(t, engine.ServerConfig{}, Config{MaxLive: 1, MaxQueue: -1}, tf)
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	shed := 0
	for i := 0; i < scans; i++ {
		_, err := RunScan(context.Background(), client, fx.url, ScanParams{Table: fx.eng.TableName(0)}, nil)
		switch {
		case errors.Is(err, ErrShed):
			shed++
		case err != nil:
			t.Fatalf("scan %d: %v", i, err)
		}
	}
	if shed != 0 {
		t.Errorf("%d of %d back-to-back scans shed by their own previous session's slot", shed, scans)
	}
	fx.shutdown(t, context.Background())
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// Config parameterises a Frontend.
type Config struct {
	// Engine is the live scan engine the front-end serves. Required. The
	// front-end owns its shutdown: Frontend.Shutdown closes it.
	Engine *engine.Server
	// MaxLive caps concurrently running scan sessions (default 64). This
	// is the admission ceiling, not a socket limit: requests beyond it
	// queue or shed.
	MaxLive int
	// MaxQueue bounds the admission wait queue across all tiers (default
	// 4×MaxLive; negative means no queue — shed immediately at the
	// ceiling).
	MaxQueue int
	// Heartbeat is the idle interval after which a session emits an
	// {"hb":true} line: the session's writer sends one after Heartbeat
	// with no line written, so a stalled scan keeps the connection (and
	// any intermediary timeouts) alive and a streaming one sends none.
	// Default 5s; negative disables.
	Heartbeat time.Duration
	// WriteTimeout bounds each write-and-flush of the session's writer,
	// which carries every line queued since its last one. A client that
	// stops reading blows the deadline, which cancels the session's scan
	// and releases its admission slot and buffer budget; the scan itself
	// never waits on the client. Default 10s; negative disables.
	WriteTimeout time.Duration
	// PruneQ6, when set, attaches the default Q6 predicate ranges to every
	// Q6-aggregating scan (?agg=q6), so chunks whose persisted zonemaps
	// (every table file carries them) cannot match are pruned before they
	// reach the scheduler; the trailer's aggregate is unchanged either way.
	PruneQ6 bool
	// Obs, when non-nil, receives the per-tier session metrics and mounts
	// the obs debug handler (/metrics, /statusz with a sessions section,
	// /debug/pprof) under the front-end's mux.
	Obs *obs.Registry
}

const (
	defaultMaxLive      = 64
	defaultHeartbeat    = 5 * time.Second
	defaultWriteTimeout = 10 * time.Second
)

// session is one admitted (or queued) scan's handle for drain-time
// cancellation.
type session struct {
	cancel context.CancelFunc
}

// tierCount is one session outcome counted per tier. The registry series
// /metrics exports is the counter /statusz reads, so the two cannot drift
// apart; it is resolved at the tier's first event and kept, because the
// exposition lists a (family, tier) pair only once it has happened.
type tierCount struct {
	vec    *obs.CounterVec
	series [numTiers]atomic.Pointer[obs.Counter]
}

func (n *tierCount) inc(t Tier) {
	c := n.series[t].Load()
	if c == nil {
		c = n.vec.With(t.String()) // the same series to every racing first caller
		n.series[t].Store(c)
	}
	c.Inc()
}

func (n *tierCount) value(t Tier) int64 { return n.series[t].Load().Value() }

// ledger is the front-end's one set of session counts and occupancy gauges.
type ledger struct {
	admitted, queued, shed, deadline, disconnected, completed tierCount

	depth [numTiers]*obs.Gauge
	live  *obs.Gauge
}

func newLedger(r *obs.Registry) *ledger {
	l := &ledger{live: r.Gauge("coopscan_serve_live_sessions", "Scan sessions currently admitted.")}
	l.admitted.vec = r.CounterVec("coopscan_serve_sessions_admitted_total", "Scan sessions admitted past the gate.", "tier")
	l.queued.vec = r.CounterVec("coopscan_serve_sessions_queued_total", "Scan sessions that waited in the admission queue.", "tier")
	l.shed.vec = r.CounterVec("coopscan_serve_sessions_shed_total", "Scan sessions shed with a retry-after hint.", "tier")
	l.deadline.vec = r.CounterVec("coopscan_serve_sessions_deadline_exceeded_total", "Scan sessions that hit their deadline queued or mid-scan.", "tier")
	l.disconnected.vec = r.CounterVec("coopscan_serve_sessions_disconnected_total", "Scan sessions whose client vanished mid-stream.", "tier")
	l.completed.vec = r.CounterVec("coopscan_serve_sessions_completed_total", "Scan sessions that streamed their full range.", "tier")
	depth := r.GaugeVec("coopscan_serve_queue_depth", "Sessions waiting in the admission queue.", "tier")
	for t := range l.depth {
		l.depth[t] = depth.With(Tier(t).String())
	}
	return l
}

// Frontend is the HTTP front-end: GET /scan streams NDJSON chunk receipts
// (and optional aggregates) for a cooperative scan; POST /admin/attach and
// /admin/detach manage tables on the running engine; the obs debug
// endpoints mount underneath when a registry is configured.
type Frontend struct {
	eng          *engine.Server
	gate         *gate
	mux          *http.ServeMux
	heartbeat    time.Duration
	writeTimeout time.Duration
	pruneQ6      bool
	led          *ledger
	obsOn        bool // label session goroutines for pprof

	seq atomic.Int64

	mu       sync.Mutex
	closed   bool
	sessions map[*session]struct{}
	owned    map[string]*engine.TableFile // admin-attached files, closed on detach/Shutdown
	wg       sync.WaitGroup
}

// New builds a Frontend over a live engine. The front-end takes over the
// engine's lifecycle: Shutdown drains sessions and closes it.
func New(cfg Config) (*Frontend, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	if cfg.MaxLive <= 0 {
		cfg.MaxLive = defaultMaxLive
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 4 * cfg.MaxLive
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = defaultHeartbeat
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	f := &Frontend{
		eng:          cfg.Engine,
		gate:         newGate(cfg.MaxLive, cfg.MaxQueue),
		heartbeat:    cfg.Heartbeat,
		writeTimeout: cfg.WriteTimeout,
		pruneQ6:      cfg.PruneQ6,
		obsOn:        cfg.Obs != nil,
		sessions:     make(map[*session]struct{}),
		owned:        make(map[string]*engine.TableFile),
	}
	// Without a registry to export to, the ledger counts into a private one.
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f.led = newLedger(reg)
	f.gate.notify = func(live int, depth [numTiers]int) {
		f.led.live.Set(int64(live))
		for t, g := range f.led.depth {
			g.Set(int64(depth[t]))
		}
	}
	f.mux = http.NewServeMux()
	f.mux.HandleFunc("/scan", f.handleScan)
	f.mux.HandleFunc("/admin/attach", f.handleAttach)
	f.mux.HandleFunc("/admin/detach", f.handleDetach)
	if cfg.Obs != nil {
		f.mux.Handle("/", obs.Handler(cfg.Obs, f.statusz))
	}
	return f, nil
}

// Handler returns the front-end's HTTP handler.
func (f *Frontend) Handler() http.Handler { return f.mux }

// Server wraps the handler in an http.Server that speaks HTTP/1.1 and
// unencrypted HTTP/2, so long-lived chunk streams can multiplex over one
// connection.
func (f *Frontend) Server() *http.Server {
	var protocols http.Protocols
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	return &http.Server{Handler: f.mux, Protocols: &protocols}
}

// TierStatus is one tier's cumulative session counts in /statusz.
type TierStatus struct {
	Admitted         int64 `json:"admitted"`
	Queued           int64 `json:"queued"`
	Shed             int64 `json:"shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Disconnected     int64 `json:"disconnected"`
	Completed        int64 `json:"completed"`
	QueueDepth       int   `json:"queue_depth"`
}

// SessionsStatus is the front-end's /statusz section.
type SessionsStatus struct {
	MaxLive  int                   `json:"max_live"`
	Live     int                   `json:"live"`
	PeakLive int                   `json:"peak_live"`
	Queued   int                   `json:"queued"`
	Draining bool                  `json:"draining"`
	Tiers    map[string]TierStatus `json:"tiers"`
}

// Sessions snapshots the admission state and per-tier counters.
func (f *Frontend) Sessions() SessionsStatus {
	gs := f.gate.status()
	out := SessionsStatus{
		MaxLive:  f.gate.maxLive,
		Live:     gs.live,
		PeakLive: gs.peak,
		Queued:   gs.queued,
		Draining: gs.draining,
		Tiers:    make(map[string]TierStatus, numTiers),
	}
	for t := Tier(0); t < numTiers; t++ {
		out.Tiers[t.String()] = TierStatus{
			Admitted:         f.led.admitted.value(t),
			Queued:           f.led.queued.value(t),
			Shed:             f.led.shed.value(t),
			DeadlineExceeded: f.led.deadline.value(t),
			Disconnected:     f.led.disconnected.value(t),
			Completed:        f.led.completed.value(t),
			QueueDepth:       gs.depth[t],
		}
	}
	return out
}

func (f *Frontend) statusz() any {
	return struct {
		Engine   engine.Status  `json:"engine"`
		Sessions SessionsStatus `json:"sessions"`
	}{f.eng.StatusSnapshot(), f.Sessions()}
}

// Shutdown drains the front-end: admissions stop (new sessions get 503,
// queued ones fail with ErrDraining), live sessions run until they finish
// or ctx expires — at which point they are deadline-cancelled and observed
// out — and then the engine is closed and admin-attached files released.
// The engine's Close error (if any) is returned; the drain itself cannot
// fail.
func (f *Frontend) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()

	f.gate.Drain()
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		f.mu.Lock()
		for s := range f.sessions {
			s.cancel()
		}
		f.mu.Unlock()
		// Scans observe cancellation between chunk deliveries, so this
		// second wait is bounded by one delivery and the session writer's
		// last write (WriteTimeout), not by ctx.
		<-done
	}
	err := f.eng.Close()
	f.mu.Lock()
	for name, tf := range f.owned {
		tf.Close()
		delete(f.owned, name)
	}
	f.mu.Unlock()
	return err
}

// ---- wire types ----

// Header is the first NDJSON line of a /scan response.
type Header struct {
	Table          string `json:"table"`
	Slot           int    `json:"slot"`
	Start          int    `json:"start"`
	End            int    `json:"end"`
	Cols           []int  `json:"cols"`
	Tier           string `json:"tier"`
	Name           string `json:"name"`
	TuplesPerChunk int64  `json:"tuples_per_chunk"`
}

// Chunk is one delivered chunk's receipt: its index, valid tuple count and
// the CRC-32 (IEEE) of the projected column bytes (valid prefix of each
// projected column, ascending column order).
type Chunk struct {
	Chunk  int    `json:"chunk"`
	Tuples int64  `json:"tuples"`
	CRC    uint32 `json:"crc"`
	HB     bool   `json:"hb,omitempty"`
}

// Trailer is the last NDJSON line: either Done with the session's totals
// (and the Q6 aggregate when agg=q6) or Error.
type Trailer struct {
	Done      bool   `json:"done"`
	Error     string `json:"error,omitempty"`
	Chunks    int    `json:"chunks"`
	Tuples    int64  `json:"tuples"`
	IOs       int    `json:"ios"`
	BytesRead int64  `json:"bytes_read"`
	Q6Revenue int64  `json:"q6_revenue,omitempty"`
	Q6Rows    int64  `json:"q6_rows,omitempty"`
}

type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// parseCols maps the cols query parameter to a column set: a named
// projection (q6, q1, all; empty means q6) or a comma-separated list of
// column indices.
func parseCols(s string) (storage.ColSet, error) {
	switch s {
	case "", "q6":
		return engine.Q6Cols(), nil
	case "q1":
		return engine.Q1Cols(), nil
	case "all":
		return storage.AllCols(engine.NumCols), nil
	}
	var cs storage.ColSet
	for _, part := range strings.Split(s, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || i < 0 || i >= engine.NumCols {
			return 0, fmt.Errorf("bad column %q (want q6, q1, all, or indices 0..%d)", part, engine.NumCols-1)
		}
		cs = cs.Add(i)
	}
	return cs, nil
}

// ---- /scan ----

func (f *Frontend) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	q := r.URL.Query()
	tier, err := ParseTier(q.Get("tier"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	tableName := q.Get("table")
	if tableName == "" {
		httpError(w, http.StatusBadRequest, "missing table parameter")
		return
	}
	slot, ok := f.eng.Lookup(tableName)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown table %q", tableName))
		return
	}
	tf := f.eng.Table(slot)
	n := tf.NumChunks()
	start, end := 0, n
	if s := q.Get("start"); s != "" {
		if start, err = strconv.Atoi(s); err != nil {
			httpError(w, http.StatusBadRequest, "bad start parameter")
			return
		}
	}
	if s := q.Get("end"); s != "" {
		if end, err = strconv.Atoi(s); err != nil {
			httpError(w, http.StatusBadRequest, "bad end parameter")
			return
		}
	}
	if start < 0 || end > n || start >= end {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad range [%d,%d) over %d chunks", start, end, n))
		return
	}
	cols, err := parseCols(q.Get("cols"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	doQ6 := false
	switch q.Get("agg") {
	case "":
	case "q6":
		if cols.Intersect(engine.Q6Cols()) != engine.Q6Cols() {
			httpError(w, http.StatusBadRequest, "agg=q6 needs the q6 columns in cols")
			return
		}
		doQ6 = true
	default:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown agg %q", q.Get("agg")))
		return
	}
	name := q.Get("name")
	if name == "" {
		name = fmt.Sprintf("http-%d", f.seq.Add(1))
	}

	ctx := r.Context()
	if ms := q.Get("deadline_ms"); ms != "" {
		d, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad deadline_ms parameter")
			return
		}
		// Beyond 292 years the product overflows into a deadline already
		// past; that far out, the longest Duration is the same promise.
		d = min(d, math.MaxInt64/int64(time.Millisecond))
		var cancelDl context.CancelFunc
		ctx, cancelDl = context.WithTimeout(ctx, time.Duration(d)*time.Millisecond)
		defer cancelDl()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Register for drain before admission so Shutdown either sees this
	// session (and waits for it / cancels it) or has already marked the
	// gate draining.
	sess := &session{cancel: cancel}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	f.wg.Add(1)
	f.sessions[sess] = struct{}{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.sessions, sess)
		f.mu.Unlock()
		f.wg.Done()
	}()

	waited, err := f.gate.Admit(ctx, tier)
	if waited {
		f.led.queued.inc(tier)
	}
	if err != nil {
		var shed *ShedError
		switch {
		case errors.As(err, &shed):
			f.led.shed.inc(tier)
			secs := int64(shed.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			writeJSON(w, http.StatusTooManyRequests, errorBody{
				Error:        "admission queue full",
				RetryAfterMS: shed.RetryAfter.Milliseconds(),
			})
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		case errors.Is(err, context.DeadlineExceeded):
			f.led.deadline.inc(tier)
			httpError(w, http.StatusGatewayTimeout, "deadline exceeded in admission queue")
		default: // client vanished while queued
			f.led.disconnected.inc(tier)
		}
		return
	}
	// runSession gives the slot back before its trailer; this catches a
	// session that panics.
	release := sync.OnceFunc(f.gate.Release)
	defer release()
	f.led.admitted.inc(tier)

	req := engine.ScanRequest{
		Table:  slot,
		Name:   name,
		Ranges: storage.NewRangeSet(storage.Range{Start: start, End: end}),
		Cols:   cols,
		Weight: tier.Weight(),
	}
	if f.pruneQ6 && doQ6 {
		// The session folds the Q6 aggregate server-side, so its filter
		// ranges are known exactly: let zonemap-carrying tables prune the
		// chunks whose bounds cannot match.
		req.Preds = engine.Q6Preds(exec.DefaultQ6())
	}
	hdr := Header{
		Table: tableName, Slot: slot, Start: start, End: end,
		Cols: cols.Indices(), Tier: tier.String(), Name: name,
		TuplesPerChunk: tf.TuplesPerChunk(),
	}
	if !f.obsOn {
		f.runSession(ctx, cancel, release, w, tier, req, hdr, doQ6)
		return
	}
	pprof.Do(ctx, pprof.Labels("session", name, "tier", tier.String()), func(ctx context.Context) {
		f.runSession(ctx, cancel, release, w, tier, req, hdr, doQ6)
	})
}

// hbLine is the heartbeat a session's writer sends after Config.Heartbeat
// with no line written.
var hbLine, _ = json.Marshal(Chunk{Chunk: -1, HB: true})

// runSession streams one admitted scan: a header line, a receipt per
// chunk, then a trailer with totals or the error. The scan's delivery
// callback never touches the network: it appends each receipt to the
// session's pending lines and signals the session's one writer goroutine,
// which owns w. The writer takes whatever is pending, writes it under the
// stall deadline and flushes once, so a client that reads slowly holds no
// chunk pinned and receipts that queue behind a flush go out in one frame.
// Pending is bounded by the scan: the header, one line per chunk of the
// range and the trailer. A failed write cancels the scan, so the engine
// releases the query and its budget, and drops every line queued after it.
// The outcome is recorded and the admission slot given back (release)
// before the trailer is queued, so a client that asks again on reading the
// trailer never finds its own old slot taken.
func (f *Frontend) runSession(ctx context.Context, cancel context.CancelFunc, release func(), w http.ResponseWriter, tier Tier, req engine.ScanRequest, hdr Header, doQ6 bool) {
	var (
		mu      sync.Mutex
		pending []byte // whole lines the writer has not taken yet
		failed  bool   // a write failed: the client is gone
	)
	kick := make(chan struct{}, 1) // pending gained a line
	stop := make(chan struct{})    // the trailer is queued
	done := make(chan struct{})
	queue := func(v any) {
		b, _ := json.Marshal(v) // the wire types always marshal
		mu.Lock()
		if !failed {
			pending = append(append(pending, b...), '\n')
		}
		mu.Unlock()
		select {
		case kick <- struct{}{}:
		default:
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	queue(hdr)
	go func() {
		defer close(done)
		rc := http.NewResponseController(w)
		var idle *time.Timer
		var idleC <-chan time.Time
		if f.heartbeat > 0 {
			idle = time.NewTimer(f.heartbeat)
			defer idle.Stop()
			idleC = idle.C
		}
		var out []byte
		for {
			hb, last := false, false
			select {
			case <-kick:
			case <-idleC:
				hb = true
			case <-stop:
				last = true
			}
			mu.Lock()
			out, pending = pending, out[:0]
			mu.Unlock()
			if hb && len(out) == 0 {
				out = append(append(out, hbLine...), '\n')
			}
			if len(out) > 0 {
				if f.writeTimeout > 0 {
					rc.SetWriteDeadline(time.Now().Add(f.writeTimeout))
				}
				_, err := w.Write(out)
				if err == nil {
					err = rc.Flush()
				}
				if err != nil {
					mu.Lock()
					failed, pending = true, nil
					mu.Unlock()
					cancel()
					return
				}
				if idle != nil {
					idle.Reset(f.heartbeat)
				}
			}
			if last {
				return
			}
		}
	}()
	// The ResponseWriter dies with the handler: join the writer before
	// returning, don't just signal it.
	defer func() {
		close(stop)
		<-done
	}()

	var agg exec.Q6Result
	var chunks int
	var tuples int64
	st, err := f.eng.ScanWith(ctx, req, func(c int, d engine.ChunkData) {
		crc := ChunkCRC(req.Cols, d)
		if doQ6 {
			agg.Add(engine.Q6Chunk(d, exec.DefaultQ6()))
		}
		chunks++
		tuples += d.Tuples()
		queue(Chunk{Chunk: c, Tuples: d.Tuples(), CRC: crc})
	})
	mu.Lock()
	gone := failed
	mu.Unlock()
	tr := Trailer{Chunks: chunks, Tuples: tuples}
	switch {
	case err == nil && !gone:
		f.led.completed.inc(tier)
		tr.Done, tr.IOs, tr.BytesRead = true, st.IOs, st.BytesRead
		if doQ6 {
			tr.Q6Revenue, tr.Q6Rows = agg.Revenue, agg.Rows
		}
	case err == nil, errors.Is(err, context.Canceled): // err == nil: it finished behind a client already gone
		f.led.disconnected.inc(tier)
	case errors.Is(err, context.DeadlineExceeded):
		f.led.deadline.inc(tier)
	}
	if err != nil {
		tr.Error = err.Error()
	}
	release()
	queue(tr)
}

// ---- /admin ----

type attachRequest struct {
	Name string `json:"name"`
	Path string `json:"path"`
}

// handleAttach opens a table file and attaches it to the running engine.
// The front-end owns the file: it is closed when the table is detached via
// /admin/detach or at Shutdown.
func (f *Frontend) handleAttach(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	var req attachRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad attach body: "+err.Error())
		return
	}
	if req.Name == "" || req.Path == "" {
		httpError(w, http.StatusBadRequest, "attach needs name and path")
		return
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	tf, err := engine.Open(req.Path)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("open %s: %v", req.Path, err))
		return
	}
	slot, err := f.eng.Attach(req.Name, tf)
	if err != nil {
		tf.Close()
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, engine.ErrTableExists):
			status = http.StatusConflict
		case errors.Is(err, engine.ErrAttachIncompatible):
			status = http.StatusBadRequest
		case errors.Is(err, engine.ErrClosed):
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err.Error())
		return
	}
	f.mu.Lock()
	if old := f.owned[req.Name]; old != nil {
		old.Close() // a previous attach under this name was detached earlier
	}
	f.owned[req.Name] = tf
	f.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"table": req.Name, "slot": slot})
}

type detachRequest struct {
	Name string `json:"name"`
}

// handleDetach detaches a table from the running engine, blocking until
// its in-flight scans drain (they fail typed with engine.ErrTableDetached
// in their trailers). Responds once the slot is fully retired.
func (f *Frontend) handleDetach(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	var req detachRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad detach body: "+err.Error())
		return
	}
	if req.Name == "" {
		httpError(w, http.StatusBadRequest, "detach needs name")
		return
	}
	if err := f.eng.DetachTable(req.Name); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, engine.ErrUnknownTable):
			status = http.StatusNotFound
		case errors.Is(err, engine.ErrClosed):
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err.Error())
		return
	}
	f.mu.Lock()
	if tf := f.owned[req.Name]; tf != nil {
		tf.Close()
		delete(f.owned, req.Name)
	}
	f.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"table": req.Name, "detached": true})
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/serve"
	"coopscan/internal/storage"
)

// Query classes. On the embedded workloads FAST runs the Q6 kernel and SLOW
// the Q1 kernel in onChunk; on the serve workload FAST is an interactive
// session with a server-side Q6 aggregate and SLOW a batch session over the
// Q1 projection.
const (
	classFast = iota
	classSlow
	numClasses
)

// scanRec is the timing of one finished scan; times are ns since the
// system's epoch.
type scanRec struct {
	stream, idx int32
	table       int8
	class       int8
	chunks      int32 // range length: pruned chunks count as answered
	delivered   int32 // chunks that reached onChunk
	start       int64 // ScanWith called / request sent
	admit       int64 // serve only: header line received
	first       int64 // first chunk delivered (= end for a fully pruned scan)
	end         int64
	failed      bool
}

func (r scanRec) latencyMS() float64 { return float64(r.end-r.start) / 1e6 }
func (r scanRec) ttfcMS() float64    { return float64(r.first-r.start) / 1e6 }

func (sys *system) now() int64 { return int64(time.Since(sys.epoch)) }

var (
	q6Pred  = exec.DefaultQ6()
	q6Preds = engine.Q6Preds(q6Pred)
)

// scanRun is one scan in flight: its timing and its answer so far.
type scanRun struct {
	sys  *system
	tr   *tracer // nil: record no spans
	name string
	plan plannedScan
	rec  scanRec
	out  outcome
	// waitFrom is where the current wait for a chunk began: the scan's start,
	// then the end of each onChunk.
	waitFrom int64
}

func (r *scanRun) span(kind spanKind, start, end int64) {
	if r.tr != nil {
		r.tr.scanSpan(kind, int(r.rec.stream), int(r.rec.idx), start, end)
	}
}

// arrived stamps the arrival of a chunk: the end of the first_chunk span for
// the first one, of a deliver_wait span for the others.
func (r *scanRun) arrived() int64 {
	at := r.sys.now()
	if r.rec.first == 0 {
		r.rec.first = at
		r.span(spanFirstChunk, r.rec.start, at)
	} else {
		r.span(spanDeliverWait, r.waitFrom, at)
	}
	return at
}

// runScan issues one scan the way the workload does, checks its answer
// against the golden and returns its timing. With tr non-nil it records the
// scan's spans. A non-nil error means the scan failed or answered wrongly.
func (sys *system) runScan(tr *tracer, stream, idx int, sc plannedScan) (scanRec, error) {
	r := &scanRun{
		sys: sys, tr: tr, plan: sc,
		name: "s" + strconv.Itoa(stream) + "." + strconv.Itoa(idx),
		rec:  scanRec{stream: int32(stream), idx: int32(idx), table: int8(sc.table), chunks: int32(sc.chunks())},
		out:  outcome{plan: sc, mayPrune: sys.tb.spec.preds && !sc.slow},
	}
	if sc.slow {
		r.rec.class = classSlow
	}
	r.rec.start = sys.now()
	r.waitFrom = r.rec.start
	var err error
	if sys.tb.spec.serve {
		err = r.overHTTP()
	} else {
		err = r.embedded()
	}
	r.rec.end = sys.now()
	if r.rec.first == 0 { // fully pruned, or failed before any chunk
		r.rec.first = r.rec.end
		r.span(spanFirstChunk, r.rec.start, r.rec.end)
	}
	if r.rec.admit != 0 {
		r.span(spanAdmit, r.rec.start, r.rec.admit)
	}
	r.span(spanScan, r.rec.start, r.rec.end)
	r.rec.delivered = int32(r.out.delivered)
	// Pruned chunks are answered when their scan returns.
	sys.answered.Add(int64(sc.chunks() - r.out.delivered))
	if err == nil {
		err = sys.tb.gold[sc.table].check(&r.out)
	}
	if err != nil {
		r.rec.failed = true
		err = fmt.Errorf("scan %s over table %d [%d,%d): %w", r.name, sc.table, sc.start, sc.end, err)
	}
	return r.rec, err
}

// embedded runs the scan through Server.ScanWith with the class's kernel in
// onChunk.
func (r *scanRun) embedded() error {
	sys, slow := r.sys, r.plan.slow
	req := engine.ScanRequest{
		Table:  r.plan.table,
		Name:   r.name,
		Ranges: storage.NewRangeSet(storage.Range{Start: r.plan.start, End: r.plan.end}),
		Cols:   engine.Q6Cols(),
	}
	if slow {
		req.Cols = engine.Q1Cols()
		r.out.q1 = make(exec.Q1Result)
	} else {
		r.out.q6 = new(exec.Q6Result)
		if r.out.mayPrune {
			req.Preds = q6Preds
		}
	}
	_, err := sys.srv.ScanWith(context.Background(), req, func(c int, d engine.ChunkData) {
		var at int64
		if r.tr != nil || r.rec.first == 0 {
			at = r.arrived()
		}
		if slow {
			r.out.q1.Merge(engine.Q1Chunk(d, q1DateMax, q1ExtraArith))
		} else {
			r.out.q6.Add(engine.Q6Chunk(d, q6Pred))
		}
		if r.tr != nil {
			r.waitFrom = sys.now()
			r.span(spanKernel, at, r.waitFrom)
			sys.kernelNanos[r.rec.class].Add(r.waitFrom - at)
			sys.kernelTuples[r.rec.class].Add(d.Tuples())
		}
		r.out.deliver(c)
		sys.answered.Add(1)
	})
	return err
}

// overHTTP runs the scan as a /scan session of the front-end: interactive
// with a server-side Q6 aggregate for FAST, batch over the Q1 projection for
// SLOW. Every chunk receipt is checked as it arrives.
func (r *scanRun) overHTTP() error {
	sys := r.sys
	params := serve.ScanParams{
		Table: sys.tableNames[r.plan.table],
		Start: r.plan.start, End: r.plan.end,
		Name: r.name,
		Cols: "q6", Tier: serve.TierInteractive, AggQ6: true,
	}
	cs := colsQ6
	if r.plan.slow {
		params.Cols, params.Tier, params.AggQ6 = "q1", serve.TierBatch, false
		cs = colsQ1
	}
	gold := sys.tb.gold[r.plan.table]
	var admitted time.Time
	ctx := context.WithValue(context.Background(), admitKey{}, &admitted)
	client := sys.clients[int(r.rec.stream)%len(sys.clients)]
	res, err := serve.RunScan(ctx, client, sys.url, params, func(c serve.Chunk) {
		r.waitFrom = r.arrived()
		gold.receipt(&r.out, cs, c.Chunk, c.Tuples, c.CRC)
		sys.answered.Add(1)
	})
	if !admitted.IsZero() {
		r.rec.admit = int64(admitted.Sub(sys.epoch))
	}
	if err != nil {
		return err
	}
	if res.Trailer.Chunks != r.out.delivered {
		return fmt.Errorf("trailer counts %d chunks, stream carried %d", res.Trailer.Chunks, r.out.delivered)
	}
	if params.AggQ6 {
		r.out.q6 = &exec.Q6Result{Revenue: res.Trailer.Q6Revenue, Rows: res.Trailer.Q6Rows}
	}
	return nil
}

// admitTimer stamps the moment a /scan response's header arrives, which the
// front-end sends (with the NDJSON header line) right after admission: send
// → header is the time spent in the admission queue plus one round trip. It
// also insists on HTTP/2, so the streams do multiplex.
type admitTimer struct{ next *http.Transport }

type admitKey struct{}

func (a admitTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := a.next.RoundTrip(r)
	if err == nil && resp.ProtoMajor != 2 {
		resp.Body.Close()
		return nil, fmt.Errorf("bench: %s answered over %s, want h2c", r.URL.Path, resp.Proto)
	}
	if at, ok := r.Context().Value(admitKey{}).(*time.Time); ok {
		*at = time.Now()
	}
	return resp, err
}

func (a admitTimer) CloseIdleConnections() { a.next.CloseIdleConnections() }

// sample is one 100 ms reading of the process and, on traced runs, of the
// engine's gauges.
type sample struct {
	tick
	rssMiB                     float64
	resident, pinned, inFlight int
	goroutines                 int
}

const sampleEvery = 100 * time.Millisecond

// windowResult is what one measured window produced.
type windowResult struct {
	start, end int64     // the window, ns since the epoch
	recs       []scanRec // scans that ended inside the window
	samples    []sample  // every sample of the run, warm-up included
	before     *snapshot // counters at the window's two ends (traced runs)
	after      *snapshot
	// wrong counts scans of the whole run (warm-up and drain included) that
	// failed or answered wrongly; firstErr is the first such error.
	wrong    int
	firstErr error
}

// runWindow runs the workload's closed loop: every stream issues its next
// scan when the previous one returns, for warmup + window, and a scan counts
// if it ends inside the window. Scans in flight at the window's end run to
// completion (and are still checked) so no scan is cancelled.
func (sys *system) runWindow(seed uint64, warmup, window time.Duration, tr *tracer) *windowResult {
	spec := sys.tb.spec
	res := &windowResult{start: sys.now() + int64(warmup)}
	res.end = res.start + int64(window)
	perStream := make([][]scanRec, spec.streams)
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < spec.streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl := newPlanner(seed, s, sys.tfs[0].NumChunks(), spec)
			for i := 0; sys.now() < res.end; i++ {
				rec, err := sys.runScan(tr, s, i, pl.next())
				perStream[s] = append(perStream[s], rec)
				if err != nil {
					errMu.Lock()
					res.wrong++
					if res.firstErr == nil {
						res.firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		ticker := time.NewTicker(sampleEvery)
		defer ticker.Stop()
		for range ticker.C {
			sm := sys.sample(tr != nil)
			res.samples = append(res.samples, sm)
			if tr != nil && res.before == nil && sm.at >= res.start {
				res.before = sys.snapshot()
			}
			if sm.at >= res.end {
				if tr != nil {
					res.after = sys.snapshot()
				}
				return
			}
		}
	}()
	wg.Wait()
	<-samplerDone
	for _, recs := range perStream {
		for _, r := range recs {
			if r.end >= res.start && r.end < res.end {
				res.recs = append(res.recs, r)
			}
		}
	}
	return res
}

func (sys *system) sample(gauges bool) sample {
	sm := sample{tick: tick{at: sys.now(), count: sys.answered.Load()}, rssMiB: rssMiB()}
	if gauges {
		st := sys.srv.StatusSnapshot()
		sm.resident, sm.pinned, sm.inFlight = st.Pool.Resident, st.Pool.Pinned, st.InFlight
		sm.goroutines = runtime.NumGoroutine()
	}
	return sm
}

// rssMiB reads the resident set size (VmRSS) from /proc/self/statm.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

func (res *windowResult) subWindowRates() []float64 {
	ticks := make([]tick, len(res.samples))
	for i, sm := range res.samples {
		ticks[i] = sm.tick
	}
	return subWindowRates(ticks, res.start, res.end)
}

// chunkRate is the window's scan_chunks_per_s: the median sub-window rate.
func (res *windowResult) chunkRate() float64 { return median(res.subWindowRates()) }

// normLatency is the paper's normalised latency: the mean over the window's
// scans of latency divided by the scan's standalone latency.
func (res *windowResult) normLatency(solo baselines) float64 {
	var norm []float64
	for _, r := range res.recs {
		norm = append(norm, r.latencyMS()/1e3/(solo[r.table][r.class]*float64(r.chunks)))
	}
	return mean(norm)
}

var errNoScans = errors.New("no scan ended inside the window")

// endToEndMetrics computes the metrics a user of the system would see from
// an untraced window.
func endToEndMetrics(res *windowResult, setupSeconds float64) (map[string]float64, error) {
	if len(res.recs) == 0 {
		return nil, errNoScans
	}
	var rss, lat, ttfc []float64
	for _, sm := range res.samples {
		if sm.at >= res.start && sm.at < res.end {
			rss = append(rss, sm.rssMiB)
		}
	}
	for _, r := range res.recs {
		lat = append(lat, r.latencyMS())
		ttfc = append(ttfc, r.ttfcMS())
	}
	p50, p95 := medianAndTail(lat)
	_, ttfc95 := medianAndTail(ttfc)
	return map[string]float64{
		"setup_s":             setupSeconds,
		"scan_chunks_per_s":   res.chunkRate(),
		"scan_latency_p50_ms": p50,
		"scan_latency_p95_ms": p95,
		"ttfc_p95_ms":         ttfc95,
		"rss_mib":             median(rss),
	}, nil
}

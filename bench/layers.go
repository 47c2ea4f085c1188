package main

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"

	"coopscan/internal/engine"
	"coopscan/internal/serve"
)

// Every layer is measured from outside: deltas of counters the program
// already publishes (Server.Stats, Frontend.Sessions, the obs registry's
// exposition, runtime/metrics, rusage), the WrapReader seam, and the spans
// the benchmark records around its own calls.

// snapshot reads every cumulative counter at one instant.
type snapshot struct {
	at           int64
	stats        engine.ServerStats
	sessions     serve.SessionsStatus
	prom         map[string]float64
	dev          deviceCounts
	cpuSeconds   float64
	rt           map[string]metrics.Sample
	kernelNanos  [numClasses]int64
	kernelTuples [numClasses]int64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func (sys *system) snapshot() *snapshot {
	sn := &snapshot{
		at:    sys.now(),
		stats: sys.srv.Stats(),
		prom:  scrape(sys),
		dev:   sys.dev.snapshot(),
		rt:    make(map[string]metrics.Sample, len(runtimeMetricNames)),
	}
	if sys.fe != nil {
		sn.sessions = sys.fe.Sessions()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		sn.cpuSeconds = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, s := range samples {
		sn.rt[s.Name] = s
	}
	for c := range sn.kernelNanos {
		sn.kernelNanos[c] = sys.kernelNanos[c].Load()
		sn.kernelTuples[c] = sys.kernelTuples[c].Load()
	}
	return sn
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// scrape reads the registry the way a Prometheus scraper would and sums each
// family's series over its labels. Histograms contribute their _sum and
// _count; bucket lines are dropped.
func scrape(sys *system) map[string]float64 {
	out := make(map[string]float64)
	if sys.reg == nil {
		return out
	}
	var buf bytes.Buffer
	if err := sys.reg.WritePrometheus(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

func (sn *snapshot) rtFloat(name string) float64 {
	s := sn.rt[name]
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// histQuantile returns the q-quantile of the growth of a runtime histogram
// between two snapshots (the upper edge of the bucket holding it), in the
// histogram's unit.
func histQuantile(before, after metrics.Sample, q float64) float64 {
	if before.Value.Kind() != metrics.KindFloat64Histogram || after.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	a, b := after.Value.Float64Histogram(), before.Value.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(a.Counts))
	for i := range a.Counts {
		delta[i] = a.Counts[i] - b.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var cum uint64
	for i, d := range delta {
		cum += d
		if cum > want {
			return a.Buckets[i+1]
		}
	}
	return a.Buckets[len(a.Buckets)-1]
}

// sumTables folds the per-table counters of a stats snapshot.
type tableSums struct {
	loads, evictions            float64
	abmBytes, diskBytes, pruned float64
	schedNanos, schedCalls      float64
}

func sumTables(st engine.ServerStats) tableSums {
	var s tableSums
	for _, t := range st.Tables {
		s.loads += float64(t.ABM.Loads)
		s.evictions += float64(t.ABM.Evictions)
		s.abmBytes += float64(t.ABM.BytesRead)
		s.diskBytes += float64(t.DiskBytesRead)
		s.pruned += float64(t.ChunksPruned)
		s.schedNanos += float64(t.SchedNanos)
		s.schedCalls += float64(t.SchedCalls)
	}
	return s
}

// classSamples are the latencies in ms of the scans of one class.
type classSamples struct{ lat, ttfc, wait []float64 }

// layerMetrics computes the per-layer metrics of a traced window. probes
// holds the values measured outside the window (single-threaded probes,
// set-up timings, the untraced reference rate).
func (sys *system) layerMetrics(res *windowResult, probes map[string]float64) map[string]float64 {
	m := make(map[string]float64, 2*len(probes))
	for k, v := range probes {
		m[k] = v
	}
	a, b := res.before, res.after
	secs := float64(b.at-a.at) / 1e9
	prom := func(name string) float64 { return b.prom[name] - a.prom[name] }
	rt := func(name string) float64 { return b.rtFloat(name) - a.rtFloat(name) }
	ta, tb := sumTables(a.stats), sumTables(b.stats)

	// What the window's scans asked for and got.
	var rangeChunks, neededBytes, deliveredParts float64
	var ttfc []float64
	var byClass [numClasses]classSamples
	for _, r := range res.recs {
		width, parts := engine.ProjectionBytes(engine.Q6Cols()), 4.0
		if r.class == classSlow {
			width, parts = engine.ProjectionBytes(engine.Q1Cols()), 7
		}
		if sys.tb.spec.format == formatNSM {
			parts = 1
		}
		rangeChunks += float64(r.chunks)
		neededBytes += float64(r.chunks) * tuplesPerChunk * float64(width)
		deliveredParts += parts * float64(r.delivered)
		ttfc = append(ttfc, r.ttfcMS())
		c := &byClass[r.class]
		c.lat = append(c.lat, r.latencyMS())
		c.ttfc = append(c.ttfc, r.ttfcMS())
		if r.admit != 0 {
			c.wait = append(c.wait, float64(r.admit-r.start)/1e6)
		}
	}
	loads := tb.loads - ta.loads
	answered := float64(sampleAt(res.samples, res.end).count - sampleAt(res.samples, res.start).count)

	// Spans inside the window.
	total, _ := sys.tr.totals(res.start, res.end)
	var gaps []float64
	for _, ss := range sys.tr.perStream {
		for _, s := range ss {
			if s.kind == spanDeliverWait && s.start >= res.start && s.end <= res.end {
				gaps = append(gaps, float64(s.end-s.start)/1e3)
			}
		}
	}
	gap50, gap95 := medianAndTail(gaps)

	// The serve layer exists only on the front-end workload; elsewhere its
	// metrics are zero. There the gaps between chunks are the front-end's
	// (NDJSON line to NDJSON line), not the engine's delivery loop.
	var serveGap95, blocked float64
	var wait []float64
	var fast, slow classSamples
	var admitted, queued, shed, deadline, disconnected float64
	if sys.fe == nil {
		blocked = 1 - ratio(total[spanKernel], total[spanScan])
	} else {
		serveGap95, gap50, gap95 = gap95/1e3, 0, 0
		fast, slow = byClass[classFast], byClass[classSlow]
		wait = append(append(wait, fast.wait...), slow.wait...)
		for tier, after := range b.sessions.Tiers {
			before := a.sessions.Tiers[tier]
			admitted += float64(after.Admitted - before.Admitted)
			queued += float64(after.Queued - before.Queued)
			shed += float64(after.Shed - before.Shed)
			deadline += float64(after.DeadlineExceeded - before.DeadlineExceeded)
			disconnected += float64(after.Disconnected - before.Disconnected)
		}
	}
	m["engine.deliver_gap_p50_us"], m["engine.deliver_gap_p95_us"] = gap50, gap95
	m["engine.blocked_share"] = blocked
	m["serve.queue_wait_p50_ms"], m["serve.queue_wait_p95_ms"] = medianAndTail(wait)
	_, m["serve.interactive.ttfc_p95_ms"] = medianAndTail(fast.ttfc)
	m["serve.interactive.latency_p50_ms"], m["serve.interactive.latency_p95_ms"] = medianAndTail(fast.lat)
	m["serve.batch.latency_p50_ms"], m["serve.batch.latency_p95_ms"] = medianAndTail(slow.lat)
	m["serve.chunk_gap_p95_ms"] = serveGap95
	m["serve.queued_share"] = ratio(queued, admitted)
	m["serve.shed"] = shed
	m["serve.deadline_exceeded"] = deadline
	m["serve.disconnected"] = disconnected

	m["engine.fanout"] = ratio(deliveredParts, loads)
	m["engine.io_amplification"] = ratio(tb.diskBytes-ta.diskBytes, neededBytes)
	m["engine.loads_per_s"] = loads / secs
	m["engine.ttfc_p50_ms"] = median(ttfc)
	for _, stage := range []struct{ metric, family string }{
		{"engine.load_read_ms_avg", "coopscan_load_read_seconds"},
		{"engine.load_verify_ms_avg", "coopscan_load_verify_seconds"},
		{"engine.load_decompress_ms_avg", "coopscan_load_decompress_seconds"},
		{"engine.load_pin_us_avg", "coopscan_load_pin_seconds"},
	} {
		m[stage.metric] = 1e3 * ratio(prom(stage.family+"_sum"), prom(stage.family+"_count"))
		m["engine.load_busy_s_per_s"] += prom(stage.family+"_sum") / secs
	}
	m["engine.load_pin_us_avg"] *= 1e3
	m["engine.recycle_miss_share"] = ratio(prom("coopscan_recycle_allocs_total"), prom("coopscan_recycle_gets_total"))
	m["engine.pruned_share"] = ratio(tb.pruned-ta.pruned, rangeChunks)
	m["engine.retries"] = float64(b.stats.Faults.Retries - a.stats.Faults.Retries)
	m["engine.quarantined"] = float64(b.stats.Faults.QuarantinedParts - a.stats.Faults.QuarantinedParts)
	m["engine.failed_scans"] = float64(b.stats.Faults.FailedScans - a.stats.Faults.FailedScans)

	decisions := tb.schedCalls - ta.schedCalls
	m["core.sched_ns_per_decision"] = ratio(tb.schedNanos-ta.schedNanos, decisions)
	m["core.decisions_per_s"] = decisions / secs
	m["core.sched_share"] = (tb.schedNanos - ta.schedNanos) / 1e9 / secs
	m["core.evictions_per_s"] = (tb.evictions - ta.evictions) / secs
	m["core.rebalances_per_s"] = prom("coopscan_arbiter_rebalances_total") / secs

	pa, pb := a.stats.Pool, b.stats.Pool
	hits, misses := float64(pb.Hits-pa.Hits), float64(pb.Misses-pa.Misses)
	m["bufferpool.hit_share"] = ratio(hits, hits+misses)
	m["bufferpool.evictions_per_s"] = float64(pb.Evictions-pa.Evictions) / secs
	m["bufferpool.loaded_mibps"] = float64(pb.BytesLoaded-pa.BytesLoaded) / (1 << 20) / secs
	var resident, pinned, inflight []float64
	peakRSS, peakGoroutines := 0.0, 0
	for _, sm := range res.samples {
		if sm.at < res.start || sm.at >= res.end {
			continue
		}
		resident = append(resident, float64(sm.resident))
		pinned = append(pinned, float64(sm.pinned))
		inflight = append(inflight, float64(sm.inFlight))
		peakRSS = max(peakRSS, sm.rssMiB)
		peakGoroutines = max(peakGoroutines, sm.goroutines)
	}
	m["bufferpool.resident_pages_avg"] = mean(resident)
	m["bufferpool.pinned_pages_avg"] = mean(pinned)
	m["engine.inflight_avg"] = mean(inflight)

	var kernelSeconds float64
	for c, name := range [numClasses]string{"exec.q6_ns_per_tuple", "exec.q1_ns_per_tuple"} {
		nanos := float64(b.kernelNanos[c] - a.kernelNanos[c])
		m[name] = ratio(nanos, float64(b.kernelTuples[c]-a.kernelTuples[c]))
		kernelSeconds += nanos / 1e9
	}
	m["exec.kernel_share"] = kernelSeconds / (secs * float64(runtime.GOMAXPROCS(0)))

	reads := float64(b.dev.reads - a.dev.reads)
	devBytes := float64(b.dev.bytes - a.dev.bytes)
	m["device.reads_per_s"] = reads / secs
	m["device.read_mibps"] = devBytes / (1 << 20) / secs
	m["device.read_ms_avg"] = ratio(float64(b.dev.nanos-a.dev.nanos)/1e6, reads)
	m["device.bytes_per_read"] = ratio(devBytes, reads)

	cpu := b.cpuSeconds - a.cpuSeconds
	alloc := rt("/gc/heap/allocs:bytes")
	m["proc.cpu_ms_per_scan_chunk"] = ratio(cpu*1e3, answered)
	m["proc.cpu_util"] = cpu / secs
	m["proc.rss_peak_mib"] = peakRSS
	m["proc.alloc_mibps"] = alloc / (1 << 20) / secs
	m["proc.alloc_bytes_per_loaded_byte"] = ratio(alloc, tb.abmBytes-ta.abmBytes)
	m["proc.gc_cpu_share"] = ratio(rt("/cpu/classes/gc/total:cpu-seconds"), rt("/cpu/classes/total:cpu-seconds"))
	m["proc.mutex_wait_s_per_s"] = rt("/sync/mutex/wait/total:seconds") / secs
	m["proc.sched_latency_p95_us"] = 1e6 * histQuantile(a.rt["/sched/latencies:seconds"], b.rt["/sched/latencies:seconds"], 0.95)
	m["proc.goroutines_peak"] = float64(peakGoroutines)
	return m
}

// sampleAt returns the first sample at or after the instant.
func sampleAt(samples []sample, at int64) sample {
	for _, sm := range samples {
		if sm.at >= at {
			return sm
		}
	}
	return samples[len(samples)-1]
}

package engine

import (
	"fmt"
	"sync/atomic"

	"coopscan/internal/core"
	"coopscan/internal/obs"
)

// serverObs bundles the server's resolved metric series and its tracer.
// Every handle is nil-safe (see internal/obs), so instrumented code updates
// them without guards; the enabled flag gates only the work that exists to
// feed a metric — time.Now() pairs and the trace args of the per-load and
// per-eviction events — so a server built without ServerConfig.Obs/Trace pays
// nil checks, and an args map at the rare attach, detach and quarantine.
//
// Trace layout: one "scheduler" track carries instant events for every
// decision the scheduler goroutine takes (load issues, evictions, arbiter
// rebalances, quarantines); each query stream gets its own track from
// scanStream (wait → deliver → process spans); and each table's load
// pipeline renders on a small set of per-table "lane" tracks — a load job
// claims a lane at issue and returns it at completion, so the queued → read
// → verify → pin spans of concurrent loads never overlap within a track.
// Verify time is accumulated across a load's page runs (checksum checks
// interleave with the positioned reads) and rendered as a span trailing the
// read it belongs to; the read+verify wall time is exact, the boundary
// between them is the accumulated split.
type serverObs struct {
	enabled bool
	tracer  *obs.Tracer

	// inflight counts issued-but-unlanded loads, bounded by
	// cfg.InFlightDepth; only the scheduler adds to it.
	inflight level

	readSeconds       *obs.Histogram
	verifySeconds     *obs.Histogram
	decompressSeconds *obs.Histogram
	pinSeconds        *obs.Histogram
	readBytes         *obs.Counter
	decodedBytes      *obs.Counter

	// The fault tallies are FaultStats (Server.Stats assembles it from their
	// counts) and stay unlabelled, so a registry scrape can be compared
	// exactly against Server.Stats().Faults.
	retries        tally
	checksumErrors tally
	quarantined    tally
	failedScans    tally
	cancelledScans tally

	// The pool tallies and levels are PoolStats, in parts, fed from three
	// sites: a load landing (misses, loaded, resident), the ABM's evict hook
	// (evictions, resident) and a delivery's Pin/Release (hits; pinned by
	// what each did to the ABM's pinned-parts count, which moves on a part's
	// 0↔1 pin transitions).
	hits, misses, evictions, loaded tally
	resident, pinned                level

	schedSeconds *obs.HistogramVec // {table, policy}
	scanSeconds  *obs.HistogramVec // {table, policy}
	usefulBytes  *obs.CounterVec   // {table}
	prunedChunks *obs.CounterVec   // {table, policy}
	receiptCRCs  *obs.CounterVec   // {table, outcome}
	kernelChunks *obs.CounterVec   // {table, decided}
	partDecodes  *obs.CounterVec   // {table, outcome}

	schedTrack obs.Track
}

// tally is one per-server event count together with the registry series that
// exports it: add is the only place either moves, so Server.Stats and a
// /metrics scrape cannot drift apart. The count is what Stats reports (a
// registry may outlive the server and accumulate across several); the series
// is nil — a no-op — without a registry. Both are atomic, so a site holding
// no lock (pruning, receipts, kernels) counts with the same type.
type tally struct {
	n atomic.Int64
	c *obs.Counter
}

func (t *tally) add(d int64) {
	t.n.Add(d)
	t.c.Add(d)
}

// receiptMeter counts one table's ChunkData.ColCRC calls by outcome: sums
// computed from a part's bytes, and sums reused from the part's memo. At a
// sharing fan-out of F deliveries per load, reused ÷ (computed + reused)
// sits near 1 − 1/F when every scan asks for receipts.
type receiptMeter struct {
	computed, reused tally
}

// decodeMeter counts one table's coded DSM parts by how their residency
// ended: decoded by a first reader, or left unread — evicted, detached or
// released at shutdown without any scan having asked for its values.
type decodeMeter struct {
	decoded, unread tally
}

// level is tally's up-and-down sibling, exported as a gauge.
type level struct {
	n atomic.Int64
	g *obs.Gauge
}

func (l *level) add(d int64) {
	l.n.Add(d)
	l.g.Add(d)
}

// tableObs is one table's pre-resolved slice of the server metrics — the
// label lookups happen once at construction, keeping the hot paths at plain
// atomic updates — plus the table's trace-lane freelist (guarded by the
// table's mu, like the rest of its runtime state).
type tableObs struct {
	sched      *obs.Histogram
	scan       *obs.Histogram
	useful     *obs.Counter
	decompress *obs.Histogram // the server's, observed by the table's decodes

	lanes     []obs.Track
	laneCount int
}

// newServerObs resolves the server's metric series from reg and allocates
// the scheduler trace track. Both arguments may be nil.
func newServerObs(reg *obs.Registry, tracer *obs.Tracer) *serverObs {
	o := &serverObs{enabled: reg != nil || tracer != nil, tracer: tracer}
	if reg != nil {
		o.inflight.g = reg.Gauge("coopscan_load_inflight",
			"Loads issued to workers and not yet completed or aborted.")
		o.readSeconds = reg.Histogram("coopscan_load_read_seconds",
			"Wall time of a load's part reads, verify and decompress time excluded (includes the device-model sleep).", obs.IOBuckets)
		o.verifySeconds = reg.Histogram("coopscan_load_verify_seconds",
			"Wall time of per-page checksum verification, accumulated per load read.", obs.IOBuckets)
		o.decompressSeconds = reg.Histogram("coopscan_load_decompress_seconds",
			"Wall time of one coded part's decode into its frame: at the part's first read, or at load for an extent larger than its frame.", obs.IOBuckets)
		o.pinSeconds = reg.Histogram("coopscan_load_pin_seconds",
			"Wall time of a load completion's commit section under its table's lock (frame publish + Load.Finish).", obs.SchedBuckets)
		o.readBytes = reg.Counter("coopscan_load_read_bytes_total",
			"Bytes read from table files by load workers (stored/disk bytes: compressed widths on v4 tables).")
		o.decodedBytes = reg.Counter("coopscan_load_decoded_bytes_total",
			"Bytes decoded into frames by load reads (equals read bytes on raw tables).")
		o.retries.c = reg.Counter("coopscan_fault_retries_total",
			"Load attempts repeated after a read or verify failure.")
		o.checksumErrors.c = reg.Counter("coopscan_fault_checksum_errors_total",
			"Load attempts rejected by page checksum verification.")
		o.quarantined.c = reg.Counter("coopscan_fault_quarantined_parts_total",
			"Parts taken out of service after a load exhausted its retries.")
		o.failedScans.c = reg.Counter("coopscan_fault_failed_scans_total",
			"Scans failed because their range needed a quarantined part.")
		o.cancelledScans.c = reg.Counter("coopscan_fault_cancelled_scans_total",
			"Scans that returned early on context cancellation.")
		o.resident.g = reg.Gauge("coopscan_pool_resident_pages",
			"Resident parts (NSM chunks, DSM column stripes), each holding one frame.")
		o.pinned.g = reg.Gauge("coopscan_pool_pinned_pages",
			"Resident parts some scan is currently processing.")
		o.hits.c = reg.Counter("coopscan_pool_hits_total",
			"Parts handed to scans from resident frames.")
		o.misses.c = reg.Counter("coopscan_pool_misses_total",
			"Parts landed by loads.")
		o.evictions.c = reg.Counter("coopscan_pool_evictions_total",
			"Parts evicted by the ABM.")
		o.loaded.c = reg.Counter("coopscan_pool_loaded_bytes_total",
			"Decoded bytes of the parts landed by loads.")
		o.schedSeconds = reg.HistogramVec("coopscan_sched_decision_seconds",
			"Wall time of scheduler decisions that committed a load.", obs.SchedBuckets, "table", "policy")
		o.scanSeconds = reg.HistogramVec("coopscan_scan_seconds",
			"Wall latency of whole scans, registration to finish.", obs.ScanBuckets, "table", "policy")
		o.usefulBytes = reg.CounterVec("coopscan_scan_useful_bytes_total",
			"Delivered bytes the scans' projections actually needed.", "table")
		o.prunedChunks = reg.CounterVec("coopscan_chunks_pruned_total",
			"Chunks zonemap-pruned out of scan registrations before reaching the scheduler.", "table", "policy")
		o.receiptCRCs = reg.CounterVec("coopscan_receipt_crcs_total",
			"Per-column receipt CRCs scans asked of delivered parts: computed from the part's bytes, or reused from the sum an earlier scan left on the resident part.", "table", "outcome")
		o.partDecodes = reg.CounterVec("coopscan_part_decodes_total",
			"Coded DSM parts that landed undecoded, by how their residency ended: decoded by their first reader, or left unread (evicted, detached or shut down with no scan having read them).", "table", "outcome")
		o.kernelChunks = reg.CounterVec("coopscan_kernel_chunks_total",
			"Chunks the Q6/Q1 kernels were handed, by what the chunk's zonemap bounds decided before a value was read: none qualifies (no column read), date_all (the date pass skipped), or some (every pass runs).", "table", "decided")
	}
	if tracer != nil {
		o.schedTrack = tracer.NewTrack("scheduler")
	}
	return o
}

// managerMetrics resolves the budget arbiter's metric series (all nil when
// reg is).
func managerMetrics(reg *obs.Registry) core.ManagerMetrics {
	if reg == nil {
		return core.ManagerMetrics{}
	}
	return core.ManagerMetrics{
		Rebalances: reg.Counter("coopscan_arbiter_rebalances_total",
			"Budget arbiter runs: one at server start, one per Attach and one per detach."),
		GrantBytes: reg.GaugeVec("coopscan_arbiter_grant_bytes",
			"Current arbiter grant per table.", "table"),
	}
}

// acquireLane claims a free load-pipeline trace lane for the table,
// allocating a new track when all lanes are busy. Returns the zero Track
// (whose span methods no-op) when tracing is off. Called under t.mu.
func (t *serverTable) acquireLane(tracer *obs.Tracer) obs.Track {
	if tracer == nil {
		return obs.Track{}
	}
	if n := len(t.o.lanes); n > 0 {
		l := t.o.lanes[n-1]
		t.o.lanes = t.o.lanes[:n-1]
		return l
	}
	t.o.laneCount++
	return tracer.NewTrack(fmt.Sprintf("load %s lane %d", t.name, t.o.laneCount))
}

// releaseLane returns a lane to the table's freelist. Called under t.mu.
func (t *serverTable) releaseLane(l obs.Track) {
	if l == (obs.Track{}) {
		return
	}
	t.o.lanes = append(t.o.lanes, l)
}

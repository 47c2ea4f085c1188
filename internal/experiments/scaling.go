package experiments

import (
	"fmt"
	"strings"

	"coopscan/internal/core"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
	"coopscan/internal/workload"
)

// ---- Scheduler scaling sweep ------------------------------------------------

// SchedScalingOpts parameterises the large-scale extension of the Figure 8
// scheduling-cost experiment: instead of sweeping the chunk count at a fixed
// 16 streams, it sweeps the number of concurrent queries (and, optionally,
// the chunk count at a fixed concurrency) at a fixed relation size, which is
// exactly the regime where a naive O(queries × chunks) relevance scheduler
// collapses and the incremental scheduler stays flat.
type SchedScalingOpts struct {
	TableBytes int64   // relation size
	Chunks     int     // number of chunks the relation is divided into
	ScanPct    float64 // fraction of the relation each query reads
	Queries    []int   // concurrent query counts to sweep
	// ChunkSweep, when non-empty, additionally sweeps the chunk count at
	// FixedQueries concurrent queries (same relation size, finer chunks),
	// measuring per-decision cost against the scheduler's other scaling
	// axis.
	ChunkSweep   []int
	FixedQueries int
	// StreamBatch forwards to workload.Spec: streams enter in batches of
	// this size so a 512-stream point does not spend 512 delays ramping
	// up. Zero means one stream per delay step (the recorded-baseline
	// shape).
	StreamBatch int
	Seed        uint64
}

// DefaultSchedScaling is the full-scale configuration: a 2 GB relation in
// 1024 chunks, 10% scans, 4..512 concurrent queries (batched startup above
// 64), plus a chunk-count sweep at 256 queries.
func DefaultSchedScaling() SchedScalingOpts {
	return SchedScalingOpts{
		TableBytes: 2 << 30, Chunks: 1024, ScanPct: 10,
		Queries:      []int{4, 8, 16, 32, 64, 128, 256, 512},
		ChunkSweep:   []int{2048, 4096},
		FixedQueries: 256,
		StreamBatch:  8,
		Seed:         9,
	}
}

// QuickSchedScaling is the scaled-down configuration used by tests and the
// decision-baseline golden; it keeps the 64-query point. It must not drift:
// its decisions are pinned by testdata/decision_baseline.txt.
func QuickSchedScaling() SchedScalingOpts {
	return SchedScalingOpts{
		TableBytes: 512 << 20, Chunks: 512, ScanPct: 10,
		Queries: []int{8, 64}, Seed: 9,
	}
}

// SchedScalingPoint is one (concurrency, chunk-count) level's measurement.
type SchedScalingPoint struct {
	Queries     int
	Chunks      int
	Decisions   int64   // scheduling decisions taken
	SchedMS     float64 // total wall-clock ms inside those decisions
	PerDecision float64 // mean ns per decision
	IORequests  int
	Evictions   int
}

// SchedScalingResult carries the sweep.
type SchedScalingResult struct {
	Opts   SchedScalingOpts
	Points []SchedScalingPoint
}

// SchedScaling runs n concurrent relevance-policy queries per point (one
// query per stream, short stagger) and records the wall-clock cost of the
// scheduler's decisions: first the query-count sweep at Opts.Chunks, then
// the optional chunk-count sweep at Opts.FixedQueries.
func SchedScaling(o SchedScalingOpts) *SchedScalingResult {
	out := &SchedScalingResult{Opts: o}
	for _, n := range o.Queries {
		out.Points = append(out.Points, schedScalingPoint(o, n, o.Chunks))
	}
	for _, chunks := range o.ChunkSweep {
		out.Points = append(out.Points, schedScalingPoint(o, o.FixedQueries, chunks))
	}
	return out
}

// schedScalingSpec is the workload of one (queries, chunks) combination.
func schedScalingSpec(o SchedScalingOpts, n, chunks int) workload.Spec {
	chunkBytes := o.TableBytes / int64(chunks)
	rows := o.TableBytes / int64(PAXTupleBytes)
	tab := tpch.LineitemTable(float64(rows) / tpch.RowsPerSF)
	layout := storage.NewNSMLayoutWidth(tab, chunkBytes, 0, PAXTupleBytes)
	var mix workload.Mix
	mix.Label = fmt.Sprintf("F-%g×%d", o.ScanPct, n)
	mix.Templates = []workload.Template{{Speed: workload.Fast, Percent: o.ScanPct}}
	return workload.Spec{
		Layout:            layout,
		BufferBytes:       o.TableBytes / 2,
		Streams:           n,
		QueriesPerStream:  1,
		StreamDelay:       0.1,
		StreamBatch:       o.StreamBatch,
		Mix:               mix,
		Seed:              o.Seed,
		Policy:            core.Relevance,
		MeasureScheduling: true,
	}
}

// schedScalingPoint measures one (queries, chunks) combination.
func schedScalingPoint(o SchedScalingOpts, n, chunks int) SchedScalingPoint {
	res := schedScalingSpec(o, n, chunks).Run()
	pt := SchedScalingPoint{
		Queries: n, Chunks: chunks, Decisions: res.SchedCalls,
		SchedMS:    res.SchedNanos / 1e6,
		IORequests: res.IORequests, Evictions: res.Evictions,
	}
	if res.SchedCalls > 0 {
		pt.PerDecision = res.SchedNanos / float64(res.SchedCalls)
	}
	return pt
}

func (r *SchedScalingResult) String() string {
	var b strings.Builder
	header(&b, "Scheduler scaling: relevance decision cost vs concurrent queries and chunks")
	fmt.Fprintf(&b, "(%g%% scans; query sweep at %d chunks", r.Opts.ScanPct, r.Opts.Chunks)
	if len(r.Opts.ChunkSweep) > 0 {
		fmt.Fprintf(&b, ", chunk sweep at %d queries", r.Opts.FixedQueries)
	}
	fmt.Fprintf(&b, ")\n")
	fmt.Fprintf(&b, "%9s %8s %11s %11s %13s %9s %10s\n",
		"#queries", "#chunks", "decisions", "sched-ms", "ns/decision", "ios", "evictions")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%9d %8d %11d %11.2f %13.0f %9d %10d\n",
			p.Queries, p.Chunks, p.Decisions, p.SchedMS, p.PerDecision, p.IORequests, p.Evictions)
	}
	return b.String()
}

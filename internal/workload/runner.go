package workload

import (
	"fmt"
	"math"
	"sort"

	"coopscan/internal/core"
	"coopscan/internal/disk"
	"coopscan/internal/storage"
)

// Spec parameterises one benchmark run: one policy over one layout and one
// stream workload. Zero values get the paper's defaults.
type Spec struct {
	Layout      storage.Layout
	DiskParams  disk.Params
	BufferBytes int64
	CPUCores    int // default 2 (the paper's dual-CPU Opteron)
	Policy      core.Policy

	Streams          int     // default 16
	QueriesPerStream int     // default 4
	StreamDelay      float64 // seconds between stream starts; default 3
	// StreamBatch starts streams in batches of this size: batch k enters at
	// k*StreamDelay, so a 512-stream sweep does not spend 512 delays just
	// ramping up. Default 1 (one stream per delay step, the paper's
	// methodology and the shape every recorded decision baseline ran).
	StreamBatch int

	Mix  Mix
	Seed uint64

	// FastCPUFactor and SlowCPUFactor set per-chunk CPU cost as a multiple
	// of the full-row chunk transfer time. Defaults (0.5, 1.85) calibrate
	// FAST to be I/O-bound and SLOW CPU-bound, matching the standalone
	// time ratio of the paper's Table 2 (F-100 20.4s vs S-100 35.3s).
	FastCPUFactor float64
	SlowCPUFactor float64

	// CPUQuantum is the preemption slice for CPU accounting (seconds);
	// default 10 ms, approximating OS time-sharing so short queries are not
	// stuck behind whole-chunk computations of long ones.
	CPUQuantum float64

	// Cols maps a speed class to the DSM column set it reads (ignored for
	// NSM). Nil selects Q6-ish columns for FAST and Q1-ish for SLOW.
	Cols func(Speed) storage.ColSet

	// TraceDisk enables the disk request trace (Figure 4).
	TraceDisk int // max entries; 0 disables

	// ElevatorWindow / StarveThreshold / Prefetch forward to core.Config
	// when non-zero (used by the ablation benchmarks).
	ElevatorWindow  int
	StarveThreshold int
	Prefetch        int

	// NoShortQueryPriority / NoWaitPromotion forward the relevance
	// ablations to core.Config.
	NoShortQueryPriority bool
	NoWaitPromotion      bool

	// MeasureScheduling forwards to core.Config (Figure 8).
	MeasureScheduling bool
}

func (s Spec) withDefaults() Spec {
	if s.CPUCores == 0 {
		s.CPUCores = 2
	}
	if s.Streams == 0 {
		s.Streams = 16
	}
	if s.QueriesPerStream == 0 {
		s.QueriesPerStream = 4
	}
	if s.StreamDelay == 0 {
		s.StreamDelay = 3
	}
	if s.StreamBatch <= 0 {
		s.StreamBatch = 1
	}
	if s.FastCPUFactor == 0 {
		s.FastCPUFactor = 0.5
	}
	if s.SlowCPUFactor == 0 {
		s.SlowCPUFactor = 1.85
	}
	if s.DiskParams.Bandwidth == 0 {
		s.DiskParams = disk.DefaultParams()
	}
	if s.CPUQuantum == 0 {
		s.CPUQuantum = 0.01
	}
	return s
}

// QueryOutcome is one executed query with its class and normalised latency.
type QueryOutcome struct {
	Template Template
	Stream   int
	Stats    core.Stats
	// Normalized is latency divided by the class's standalone cold time.
	Normalized float64
}

// ClassStats aggregates outcomes per query class (one row of Table 2).
type ClassStats struct {
	Template   Template
	Count      int
	Standalone float64 // solo cold-buffer latency (the "cold time" column)
	AvgLatency float64
	StdDev     float64
	AvgNorm    float64
	AvgIOs     float64
}

// Result is one policy's benchmark outcome (one column of Table 2/3).
type Result struct {
	Policy core.Policy
	Mix    string

	AvgStreamTime  float64
	AvgNormLatency float64
	TotalTime      float64
	CPUUse         float64
	// The ABM counters: Loads, IORequests, BytesRead, Evictions.
	core.SystemStats

	Queries []QueryOutcome
	Classes []ClassStats

	DiskTrace []disk.TraceEntry

	SchedNanos float64 // wall-clock ns spent in relevance decisions
	SchedCalls int64
}

// fullRowChunkTime is the transfer time of one full-width chunk of logical
// data, the unit the CPU factors are calibrated against. For DSM this uses
// the compressed per-column densities, not the block-rounded physical
// extents: CPU cost tracks tuples processed, not I/O units.
func (s Spec) fullRowChunkTime(sys *System) float64 {
	var bytes float64
	if d, ok := s.Layout.(*storage.DSMLayout); ok {
		perTuple := 0.0
		for _, c := range s.Layout.Table().Columns {
			perTuple += c.BitsPerValue / 8
		}
		bytes = perTuple * float64(d.TuplesPerChunk())
	} else {
		bytes = float64(s.Layout.ChunkBytes(0, 0))
	}
	return sys.dsk.TransferTime(int64(bytes))
}

// scan is template t as one scan of sys over ranges: the class's columns
// and its per-chunk CPU cost, the speed's factor times the chunk transfer
// time.
func (s Spec) scan(sys *System, t Template, name string, ranges storage.RangeSet) TableScan {
	factor := s.FastCPUFactor
	if t.Speed == Slow {
		factor = s.SlowCPUFactor
	}
	return TableScan{Table: s.Layout.Table().Name, Scan: Scan{
		Name: name, Ranges: ranges, Columns: s.colsFor(t),
		CPUPerChunk: factor * s.fullRowChunkTime(sys),
	}}
}

// defaultCols selects DSM columns per speed: Q6 reads 4 columns, Q1 seven.
func defaultCols(layout storage.Layout, speed Speed) storage.ColSet {
	n := layout.Table().NumColumns()
	take := 4
	if speed == Slow {
		take = 7
	}
	if take > n {
		take = n
	}
	return storage.AllCols(take)
}

// chunksFor is how many chunks template t reads of the layout: its
// percentage of the relation, rounded, at least one.
func chunksFor(layout storage.Layout, t Template) int {
	n := layout.NumChunks()
	return min(max(int(math.Round(float64(n)*t.Percent/100)), 1), n)
}

// rangeFor draws the random chunk range for a template ("reading X% of the
// full relation from a random location").
func rangeFor(layout storage.Layout, t Template, r *RNG) storage.RangeSet {
	n, chunks := layout.NumChunks(), chunksFor(layout, t)
	start := 0
	if n > chunks {
		start = r.Intn(n - chunks + 1)
	}
	return storage.NewRangeSet(storage.Range{Start: start, End: start + chunks})
}

// Standalone runs template t alone with a cold buffer under the spec's
// substrate (normal policy) and returns its latency: the normalisation
// baseline of the paper's "norm. lat." columns.
func (s Spec) Standalone(t Template) float64 {
	s = s.withDefaults()
	s.Policy = core.Normal
	sys := s.NewSystem(s.Layout)
	head := storage.NewRangeSet(storage.Range{Start: 0, End: chunksFor(s.Layout, t)})
	sys.AddStream(0, s.scan(sys, t, t.Name(), head))
	rep, err := sys.Run()
	if err != nil {
		panic(fmt.Sprintf("workload: standalone run: %v", err))
	}
	return rep.Scans[0].Latency()
}

func (s Spec) colsFor(t Template) storage.ColSet {
	if !s.Layout.Columnar() {
		return 0
	}
	if t.Cols != 0 {
		return storage.ColSet(t.Cols)
	}
	if s.Cols != nil {
		return s.Cols(t.Speed)
	}
	return defaultCols(s.Layout, t.Speed)
}

// Run executes the benchmark and computes all metrics. Baselines for
// normalised latency are computed (once per class) with standalone runs.
func (s Spec) Run() Result {
	s = s.withDefaults()
	if len(s.Mix.Templates) == 0 {
		panic("workload: empty mix")
	}
	baselines := make(map[string]float64)
	for _, t := range s.Mix.Templates {
		if _, ok := baselines[t.Name()]; !ok {
			baselines[t.Name()] = s.Standalone(t)
		}
	}

	// Each stream draws its templates and ranges from its own generator, so
	// drawing them all up front is the draw order a lazy stream would see.
	sys := s.NewSystem(s.Layout)
	templates := make([]Template, 0, s.Streams*s.QueriesPerStream)
	for st := 0; st < s.Streams; st++ {
		streamRNG := NewRNG(s.Seed*1_000_003 + uint64(st))
		scans := make([]TableScan, s.QueriesPerStream)
		for qi := range scans {
			t := s.Mix.Templates[streamRNG.Intn(len(s.Mix.Templates))]
			templates = append(templates, t)
			scans[qi] = s.scan(sys, t, fmt.Sprintf("%s#s%dq%d", t.Name(), st, qi), rangeFor(s.Layout, t, streamRNG))
		}
		sys.AddStream(float64(st/s.StreamBatch)*s.StreamDelay, scans...)
	}
	rep, err := sys.Run()
	if err != nil {
		panic(fmt.Sprintf("workload: %v run: %v", s.Policy, err))
	}
	// Outcomes fold in completion order: the averages below are float sums.
	outcomes := make([]QueryOutcome, 0, len(templates))
	for _, i := range sys.finished {
		t, stats := templates[i], rep.Scans[i]
		outcomes = append(outcomes, QueryOutcome{
			Template:   t,
			Stream:     rep.Streams[i],
			Stats:      stats,
			Normalized: stats.Latency() / baselines[t.Name()],
		})
	}

	res := Result{Policy: s.Policy, Mix: s.Mix.Label, Queries: outcomes, SystemStats: rep.System}
	// A stream's time runs from its first scan's registration to its last
	// scan's end.
	for st, q := 0, s.QueriesPerStream; st < s.Streams; st++ {
		res.AvgStreamTime += rep.Scans[(st+1)*q-1].Done - rep.Scans[st*q].Enter
	}
	res.AvgStreamTime /= float64(s.Streams)
	for _, o := range outcomes {
		res.AvgNormLatency += o.Normalized
	}
	res.AvgNormLatency /= float64(len(outcomes))
	res.TotalTime = rep.Elapsed
	res.CPUUse = rep.CPUUtilisation
	res.DiskTrace = sys.dsk.Trace()
	abm, _ := sys.mgr.For(s.Layout.Table().Name)
	schedDur, schedCalls := abm.SchedulingCost()
	res.SchedNanos = float64(schedDur.Nanoseconds())
	res.SchedCalls = schedCalls
	res.Classes = classStats(outcomes, baselines)
	return res
}

// classStats folds outcomes into per-class rows, ordered F before S, then
// ascending percentage (Table 2's row order).
func classStats(outcomes []QueryOutcome, baselines map[string]float64) []ClassStats {
	byName := map[string]*ClassStats{}
	for _, o := range outcomes {
		cs, ok := byName[o.Template.Name()]
		if !ok {
			cs = &ClassStats{Template: o.Template, Standalone: baselines[o.Template.Name()]}
			byName[o.Template.Name()] = cs
		}
		cs.Count++
		cs.AvgLatency += o.Stats.Latency()
		cs.AvgNorm += o.Normalized
		cs.AvgIOs += float64(o.Stats.IOs)
	}
	out := make([]ClassStats, 0, len(byName))
	for _, cs := range byName {
		n := float64(cs.Count)
		cs.AvgLatency /= n
		cs.AvgNorm /= n
		cs.AvgIOs /= n
		out = append(out, *cs)
	}
	// Standard deviation needs a second pass.
	for i := range out {
		var ss float64
		for _, o := range outcomes {
			if o.Template == out[i].Template {
				d := o.Stats.Latency() - out[i].AvgLatency
				ss += d * d
			}
		}
		if out[i].Count > 1 {
			out[i].StdDev = math.Sqrt(ss / float64(out[i].Count))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Template.Speed != out[j].Template.Speed {
			return out[i].Template.Speed == Fast
		}
		return out[i].Template.Percent < out[j].Template.Percent
	})
	return out
}

// RunAllPolicies executes the spec under every policy, reusing the same
// workload choices (same seed), and returns results in policy order.
func (s Spec) RunAllPolicies() []Result {
	out := make([]Result, 0, len(core.Policies))
	for _, pol := range core.Policies {
		sp := s
		sp.Policy = pol
		out = append(out, sp.Run())
	}
	return out
}

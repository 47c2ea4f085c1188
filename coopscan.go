// Package coopscan is a reproduction of "Cooperative Scans: Dynamic
// Bandwidth Sharing in a DBMS" (Zukowski, Héman, Nes, Boncz — VLDB 2007).
//
// It implements the paper's Cooperative Scans framework — the CScan scan
// operator plus an Active Buffer Manager (ABM) that dynamically schedules
// chunk-granularity disk I/O across all concurrent scans of a table — with
// all four scheduling policies studied in the paper (normal, attach,
// elevator and the new relevance policy), over both row-wise (NSM/PAX) and
// column-wise (DSM) storage layouts.
//
// Everything runs on a deterministic discrete-event simulation of the
// paper's benchmark hardware (a ~210 MB/s RAID and a 2-core CPU), so
// experiments are exactly reproducible and complete in seconds. Real query
// processing (TPC-H Q6/Q1-style aggregation, ordered aggregation under
// out-of-order delivery, cooperative merge join) can be attached to scans
// via the OnChunk hook, computing true results over synthetic TPC-H data.
//
// The typical flow is:
//
//	layout := coopscan.NewRowLayout(coopscan.Lineitem(1), 16<<20)
//	sys := coopscan.NewSystem(layout, coopscan.Config{
//		Policy:      coopscan.Relevance,
//		BufferBytes: 64 * 16 << 20,
//	})
//	sys.AddStream(0, coopscan.Scan{Name: "q1", Ranges: coopscan.FullTable(layout)})
//	sys.AddStream(3, coopscan.Scan{Name: "q2", Ranges: coopscan.FullTable(layout)})
//	report, err := sys.Run()
//
// See the examples/ directory for complete programs, and cmd/coopscan for
// the experiment harness that regenerates every table and figure of the
// paper's evaluation.
package coopscan

import (
	"fmt"

	"coopscan/internal/core"
	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// Policy selects the I/O scheduling policy (the paper's §3-§4).
type Policy = core.Policy

// The four policies of the paper.
const (
	// Normal is per-query sequential scanning over an LRU buffer pool.
	Normal = core.Normal
	// Attach is circular/shared scans (SQLServer, RedBrick, Teradata).
	Attach = core.Attach
	// Elevator is a single strictly-sequential system-wide cursor.
	Elevator = core.Elevator
	// Relevance is the paper's contribution: relevance-function scheduling.
	Relevance = core.Relevance
)

// Policies lists all policies in presentation order.
var Policies = core.Policies

// Re-exported building blocks, so applications need only this package.
type (
	// Table is logical table metadata (name, columns, row count).
	Table = storage.Table
	// Column describes one attribute, including its DSM compression.
	Column = storage.Column
	// Layout is a physical table layout (row- or column-wise).
	Layout = storage.Layout
	// Range is a half-open chunk interval.
	Range = storage.Range
	// RangeSet is a normalised set of chunk ranges (a scan request).
	RangeSet = storage.RangeSet
	// ColSet is a set of column indices (DSM scans).
	ColSet = storage.ColSet
	// ZoneMap is per-chunk min/max metadata used to prune scan ranges.
	ZoneMap = storage.ZoneMap
	// ScanStats reports one finished scan.
	ScanStats = core.Stats
	// SystemStats aggregates buffer-manager counters.
	SystemStats = core.SystemStats
	// DiskParams describes the simulated device.
	DiskParams = disk.Params
	// DiskStats aggregates device activity.
	DiskStats = disk.Stats
)

// NewRangeSet, Cols and AllCols build scan requests.
var (
	NewRangeSet = storage.NewRangeSet
	Cols        = storage.Cols
	AllCols     = storage.AllCols
)

// NewRowLayout lays a table out row-wise (NSM/PAX) in fixed-size chunks.
func NewRowLayout(t *Table, chunkBytes int64) *storage.NSMLayout {
	return storage.NewNSMLayout(t, chunkBytes, 0)
}

// NewRowLayoutWidth is NewRowLayout with an explicit effective tuple width,
// modelling PAX pages with lightweight compression.
func NewRowLayoutWidth(t *Table, chunkBytes int64, tupleBytes float64) *storage.NSMLayout {
	return storage.NewNSMLayoutWidth(t, chunkBytes, 0, tupleBytes)
}

// NewColumnLayout lays a table out column-wise (DSM) with logical chunks of
// tuplesPerChunk rows over pageBytes pages; per-column physical densities
// come from each Column's compression scheme.
func NewColumnLayout(t *Table, tuplesPerChunk, pageBytes int64) *storage.DSMLayout {
	return storage.NewDSMLayout(t, tuplesPerChunk, pageBytes, 0)
}

// FullTable returns the range set covering every chunk of the layout.
func FullTable(l Layout) RangeSet {
	return NewRangeSet(Range{Start: 0, End: l.NumChunks()})
}

// Config parameterises a System.
type Config struct {
	// Policy is the scheduling policy; default Relevance.
	Policy Policy
	// BufferBytes is the ABM pool capacity; required.
	BufferBytes int64
	// CPUCores models the processing parallelism; default 2.
	CPUCores int
	// Disk overrides the device model; zero value uses the paper-like
	// defaults (~210 MB/s sequential, 8 ms seek).
	Disk DiskParams
	// CPUQuantum is the preemption slice in seconds; default 10 ms.
	CPUQuantum float64
	// StarveThreshold, ElevatorWindow and Prefetch tune the policies; zero
	// values use the paper's defaults (2, 4, 1).
	StarveThreshold int
	ElevatorWindow  int
	Prefetch        int
}

// Scan describes one cooperative scan to execute.
type Scan struct {
	// Name labels the scan in statistics.
	Name string
	// Ranges is the set of chunks to read; required.
	Ranges RangeSet
	// Columns is the DSM column set; ignored for row layouts.
	Columns ColSet
	// CPUPerChunk is the simulated processing cost of one full chunk in
	// seconds (scaled down pro rata for a short final chunk).
	CPUPerChunk float64
	// OnChunk, when non-nil, is invoked for every delivered chunk with the
	// table row range it covers, in delivery order — the hook where real
	// query processing (e.g. exec-style aggregation) plugs in. Delivery
	// order is policy-dependent and generally not sequential.
	OnChunk func(chunk int, firstRow, rows int64)
}

// simRun is what System and MultiSystem share: the simulated hardware, the
// stream bookkeeping and the per-scan result slots.
type simRun struct {
	env *sim.Env
	dsk *disk.Disk
	cpu *sim.Resource
	cfg Config

	nStreams int
	pending  int
	results  []scanSlot
	ran      bool
}

type scanSlot struct {
	stream int
	stats  ScanStats
}

// addStream schedules one stream: scans run sequentially from virtual time
// startAt, scan i against the ABM and layout target(i) names, each with its
// pro-rata CPU cost and row-range OnChunk hook; the last stream to finish
// calls shutdown.
func (r *simRun) addStream(startAt float64, scans []Scan, target func(i int) (*core.ABM, Layout), shutdown func()) {
	if r.ran {
		panic("coopscan: AddStream after Run")
	}
	if len(scans) == 0 {
		panic("coopscan: empty stream")
	}
	for _, sc := range scans {
		if sc.Ranges.Empty() {
			panic(fmt.Sprintf("coopscan: scan %q has no ranges", sc.Name))
		}
	}
	streamIdx := r.nStreams
	r.nStreams++
	base := len(r.results)
	for range scans {
		r.results = append(r.results, scanSlot{stream: streamIdx})
	}
	r.pending++
	r.env.ProcessAt(fmt.Sprintf("stream-%d", streamIdx), startAt, func(p *sim.Proc) {
		for i, sc := range scans {
			abm, layout := target(i)
			fullTuples := layout.ChunkTuples(0)
			q := abm.NewQuery(sc.Name, sc.Ranges, sc.Columns)
			opts := core.ScanOptions{CPU: r.cpu, Quantum: r.cfg.CPUQuantum}
			if sc.CPUPerChunk > 0 {
				per := sc.CPUPerChunk
				opts.Cost = func(_ int, tuples int64) float64 {
					if fullTuples <= 0 {
						return per
					}
					return per * float64(tuples) / float64(fullTuples)
				}
			}
			if sc.OnChunk != nil {
				hook := sc.OnChunk
				opts.OnChunk = func(chunk int) {
					hook(chunk, int64(chunk)*fullTuples, layout.ChunkTuples(chunk))
				}
			}
			r.results[base+i].stats = core.RunCScan(p, abm, q, opts)
		}
		r.pending--
		if r.pending == 0 {
			shutdown()
		}
	})
}

// run executes all streams to completion, once, and assembles the report
// around the buffer-manager counters system reads afterwards.
func (r *simRun) run(system func() SystemStats) (*Report, error) {
	if r.ran {
		return nil, fmt.Errorf("coopscan: Run called twice")
	}
	if r.nStreams == 0 {
		return nil, fmt.Errorf("coopscan: no streams added")
	}
	r.ran = true
	if err := r.env.Run(0); err != nil {
		return nil, fmt.Errorf("coopscan: simulation stuck: %w", err)
	}
	rep := &Report{
		System:         system(),
		Disk:           r.dsk.Stats(),
		Elapsed:        r.env.Now(),
		CPUUtilisation: r.cpu.Utilisation(),
	}
	for _, slot := range r.results {
		rep.Scans = append(rep.Scans, slot.stats)
		rep.Streams = append(rep.Streams, slot.stream)
	}
	return rep, nil
}

// System is an assembled simulation: a disk, a CPU pool, an ABM over one
// layout, and a set of query streams. Build with NewSystem, add streams,
// then call Run exactly once.
type System struct {
	simRun
	abm    *core.ABM
	layout Layout
}

// NewSystem creates a system over the layout.
func NewSystem(layout Layout, cfg Config) *System {
	if cfg.CPUCores == 0 {
		cfg.CPUCores = 2
	}
	if cfg.Disk.Bandwidth == 0 {
		cfg.Disk = disk.DefaultParams()
	}
	if cfg.CPUQuantum == 0 {
		cfg.CPUQuantum = 0.01
	}
	env := sim.NewEnv()
	d := disk.New(env, cfg.Disk)
	abm := core.New(env, d, layout, core.Config{
		Policy:          cfg.Policy,
		BufferBytes:     cfg.BufferBytes,
		StarveThreshold: cfg.StarveThreshold,
		ElevatorWindow:  cfg.ElevatorWindow,
		Prefetch:        cfg.Prefetch,
	})
	return &System{
		simRun: simRun{env: env, dsk: d, cpu: env.NewResource("cpu", cfg.CPUCores), cfg: cfg},
		abm:    abm, layout: layout,
	}
}

// AddStream schedules scans to run sequentially, starting at virtual time
// startAt seconds — the paper's notion of a query stream.
func (s *System) AddStream(startAt float64, scans ...Scan) {
	scans = append([]Scan(nil), scans...)
	s.addStream(startAt, scans, func(int) (*core.ABM, Layout) { return s.abm, s.layout }, s.abm.Shutdown)
}

// Report is the outcome of a Run.
type Report struct {
	// Scans holds per-scan statistics in AddStream order.
	Scans []ScanStats
	// Streams maps each entry of Scans to its stream index.
	Streams []int
	// System aggregates ABM counters; Disk aggregates device activity.
	System SystemStats
	Disk   DiskStats
	// Elapsed is the total virtual time, CPUUtilisation the mean busy
	// fraction of the core pool over it.
	Elapsed        float64
	CPUUtilisation float64
}

// Run executes all streams to completion and returns the report. It can be
// called once per System.
func (s *System) Run() (*Report, error) { return s.run(s.abm.Stats) }

// Pace makes Run sleep factor×(virtual seconds) of wall time between
// events, so examples can animate a simulation; call before Run.
func (s *System) Pace(factor float64) { s.env.Pace = factor }

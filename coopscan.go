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
	"coopscan/internal/core"
	"coopscan/internal/disk"
	"coopscan/internal/storage"
	"coopscan/internal/workload"
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

// newSim assembles the one simulated system (workload.System) over the
// layouts. Zero fields pass through: the defaults Config documents are
// applied there, in the one defaults table.
func newSim(cfg Config, layouts ...Layout) *workload.System {
	return workload.Spec{
		Policy:          cfg.Policy,
		BufferBytes:     cfg.BufferBytes,
		CPUCores:        cfg.CPUCores,
		DiskParams:      cfg.Disk,
		CPUQuantum:      cfg.CPUQuantum,
		StarveThreshold: cfg.StarveThreshold,
		ElevatorWindow:  cfg.ElevatorWindow,
		Prefetch:        cfg.Prefetch,
	}.NewSystem(layouts...)
}

// System is an assembled simulation: a disk, a CPU pool, an ABM over one
// layout, and a set of query streams. Build with NewSystem, add streams,
// then call Run exactly once.
type System struct {
	sim   *workload.System
	table string
}

// NewSystem creates a system over the layout.
func NewSystem(layout Layout, cfg Config) *System {
	return &System{sim: newSim(cfg, layout), table: layout.Table().Name}
}

// AddStream schedules scans to run sequentially, starting at virtual time
// startAt seconds — the paper's notion of a query stream.
func (s *System) AddStream(startAt float64, scans ...Scan) {
	ts := make([]workload.TableScan, len(scans))
	for i, sc := range scans {
		ts[i] = workload.TableScan{Table: s.table, Scan: workload.Scan(sc)}
	}
	s.sim.AddStream(startAt, ts...)
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
func (s *System) Run() (*Report, error) { return run(s.sim) }

func run(sim *workload.System) (*Report, error) {
	rep, err := sim.Run()
	return (*Report)(rep), err
}

// Pace makes Run sleep factor×(virtual seconds) of wall time between
// events, so examples can animate a simulation; call before Run.
func (s *System) Pace(factor float64) { s.sim.Pace(factor) }

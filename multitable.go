package coopscan

import "coopscan/internal/workload"

// MultiSystem runs cooperative scans over several tables that share one
// disk, one CPU pool and one buffer budget — the paper's §7.1 requirement
// that a production CScan "keep track of multiple tables, keeping separate
// statistics and meta-data for each". Each table gets its own ABM instance
// (chunk map, query registry, policy state); the device arbitrates between
// them and the buffer budget is split proportionally to table footprint.
type MultiSystem struct{ sim *workload.System }

// TableScan is a Scan targeted at a named table of a MultiSystem.
type TableScan struct {
	// Table names the layout the scan reads (Table().Name).
	Table string
	Scan
}

// NewMultiSystem creates a system over the given layouts. Config.BufferBytes
// is the total budget, divided across tables proportionally to size with a
// one-chunk floor each.
func NewMultiSystem(layouts []Layout, cfg Config) *MultiSystem {
	return &MultiSystem{newSim(cfg, layouts...)}
}

// UseCScan reports whether scans of the named table go through the
// cooperative machinery (§7.1: small tables fall back to plain Scan —
// which in this implementation is simply a one-query normal-policy pass,
// so the answer is advisory).
func (ms *MultiSystem) UseCScan(table string) bool { return ms.sim.UseCScan(table) }

// AddStream schedules table-scans to run sequentially from startAt.
func (ms *MultiSystem) AddStream(startAt float64, scans ...TableScan) {
	ts := make([]workload.TableScan, len(scans))
	for i, sc := range scans {
		ts[i] = workload.TableScan{Table: sc.Table, Scan: workload.Scan(sc.Scan)}
	}
	ms.sim.AddStream(startAt, ts...)
}

// Run executes all streams and returns the combined report.
func (ms *MultiSystem) Run() (*Report, error) { return run(ms.sim) }

package coopscan

import (
	"fmt"

	"coopscan/internal/core"
	"coopscan/internal/disk"
	"coopscan/internal/sim"
)

// MultiSystem runs cooperative scans over several tables that share one
// disk, one CPU pool and one buffer budget — the paper's §7.1 requirement
// that a production CScan "keep track of multiple tables, keeping separate
// statistics and meta-data for each". Each table gets its own ABM instance
// (chunk map, query registry, policy state); the device arbitrates between
// them and the buffer budget is split proportionally to table footprint.
type MultiSystem struct {
	simRun
	mgr     *core.Manager
	layouts map[string]Layout
}

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
	if len(layouts) == 0 {
		panic("coopscan: NewMultiSystem with no layouts")
	}
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
	mgr := core.NewManager(env, d, core.Config{
		Policy:          cfg.Policy,
		StarveThreshold: cfg.StarveThreshold,
		ElevatorWindow:  cfg.ElevatorWindow,
		Prefetch:        cfg.Prefetch,
	})
	// Floor each table's share at one full-width chunk so every ABM can
	// make progress.
	var maxChunk int64 = 1
	for _, l := range layouts {
		cb := l.ChunkBytes(0, AllCols(min(l.Table().NumColumns(), 64)))
		if cb > maxChunk {
			maxChunk = cb
		}
	}
	shares := core.SplitBuffer(cfg.BufferBytes, maxChunk, layouts...)
	ms := &MultiSystem{
		simRun: simRun{env: env, dsk: d, cpu: env.NewResource("cpu", cfg.CPUCores), cfg: cfg},
		mgr:    mgr, layouts: make(map[string]Layout, len(layouts)),
	}
	for i, l := range layouts {
		ms.layouts[l.Table().Name] = l
		mgr.Attach(l, shares[i])
	}
	return ms
}

// UseCScan reports whether scans of the named table go through the
// cooperative machinery (§7.1: small tables fall back to plain Scan —
// which in this implementation is simply a one-query normal-policy pass,
// so the answer is advisory).
func (ms *MultiSystem) UseCScan(table string) bool { return ms.mgr.UseCScan(table) }

// AddStream schedules table-scans to run sequentially from startAt.
func (ms *MultiSystem) AddStream(startAt float64, scans ...TableScan) {
	plain := make([]Scan, len(scans))
	tables := make([]string, len(scans))
	for i, sc := range scans {
		if _, ok := ms.layouts[sc.Table]; !ok {
			panic(fmt.Sprintf("coopscan: unknown table %q", sc.Table))
		}
		plain[i], tables[i] = sc.Scan, sc.Table
	}
	ms.addStream(startAt, plain, func(i int) (*core.ABM, Layout) {
		abm, _ := ms.mgr.For(tables[i])
		return abm, ms.layouts[tables[i]]
	}, ms.mgr.Shutdown)
}

// Run executes all streams and returns the combined report.
func (ms *MultiSystem) Run() (*Report, error) { return ms.run(ms.mgr.Stats) }

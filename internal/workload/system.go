package workload

import (
	"fmt"

	"coopscan/internal/core"
	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// Scan, TableScan and Report are, field for field, the public coopscan types
// of the same names (the root package converts, it does not copy) and are
// documented there.
type (
	Scan struct {
		Name        string
		Ranges      storage.RangeSet
		Columns     storage.ColSet
		CPUPerChunk float64
		OnChunk     func(chunk int, firstRow, rows int64)
	}
	TableScan struct {
		Table string
		Scan
	}
	Report struct {
		Scans          []core.Stats
		Streams        []int
		System         core.SystemStats
		Disk           disk.Stats
		Elapsed        float64
		CPUUtilisation float64
	}
)

// System is the one assembled simulation: a virtual clock, the modelled
// disk, a CPU pool and a core.Manager with one ABM per layout, plus the
// query streams that run against them. The public coopscan.System and
// MultiSystem, Spec.Run and Spec.Standalone are all clients of it, so the
// examples a reader runs and the numbers the goldens pin come from the same
// machine. Build with Spec.NewSystem, add streams, then call Run once.
type System struct {
	env     *sim.Env
	dsk     *disk.Disk
	cpu     *sim.Resource
	mgr     *core.Manager
	quantum float64

	rep      Report
	finished []int // indices into rep.Scans, in completion order
	streams  int
	pending  int
	ran      bool
}

// NewSystem assembles the machine the spec describes (device, cores,
// quantum, policy and its tuning, disk trace, scheduling meter) over the
// given layouts. One table gets the whole of BufferBytes; several split it
// proportionally to footprint, each floored at the widest full chunk so
// every ABM can make progress.
func (s Spec) NewSystem(layouts ...storage.Layout) *System {
	if len(layouts) == 0 {
		panic("coopscan: system over no layouts")
	}
	s = s.withDefaults()
	env := sim.NewEnv()
	d := disk.New(env, s.DiskParams)
	if s.TraceDisk > 0 {
		d.EnableTrace(s.TraceDisk)
	}
	mgr := core.NewManager(env, d, core.Config{
		Policy:            s.Policy,
		MeasureScheduling: s.MeasureScheduling,
		ElevatorWindow:    s.ElevatorWindow,
		StarveThreshold:   s.StarveThreshold,
		Prefetch:          s.Prefetch,

		NoShortQueryPriority: s.NoShortQueryPriority,
		NoWaitPromotion:      s.NoWaitPromotion,
	})
	shares := []int64{s.BufferBytes}
	if len(layouts) > 1 {
		var maxChunk int64 = 1
		for _, l := range layouts {
			maxChunk = max(maxChunk, l.ChunkBytes(0, storage.AllCols(min(l.Table().NumColumns(), storage.MaxColumns))))
		}
		shares = core.SplitBuffer(s.BufferBytes, maxChunk, layouts...)
	}
	for i, l := range layouts {
		mgr.Attach(l, shares[i])
	}
	return &System{env: env, dsk: d, cpu: env.NewResource("cpu", s.CPUCores), mgr: mgr, quantum: s.CPUQuantum}
}

// UseCScan reports whether scans of the named table should go through the
// cooperative machinery (§7.1: small tables fall back to plain Scan).
func (sys *System) UseCScan(table string) bool { return sys.mgr.UseCScan(table) }

// Pace makes Run sleep factor×(virtual seconds) of wall time between
// events; call before Run.
func (sys *System) Pace(factor float64) { sys.env.Pace = factor }

// AddStream schedules scans to run back to back from virtual time startAt —
// the paper's notion of a query stream. Each scan registers with its
// table's ABM when its turn comes, is charged its pro-rata CPU cost per
// delivered chunk, and reports the row range of each chunk to OnChunk; the
// last stream to finish shuts the loaders down.
func (sys *System) AddStream(startAt float64, scans ...TableScan) {
	if sys.ran {
		panic("coopscan: AddStream after Run")
	}
	if len(scans) == 0 {
		panic("coopscan: empty stream")
	}
	abms := make([]*core.ABM, len(scans))
	for i, sc := range scans {
		if sc.Ranges.Empty() {
			panic(fmt.Sprintf("coopscan: scan %q has no ranges", sc.Name))
		}
		abm, ok := sys.mgr.For(sc.Table)
		if !ok {
			panic(fmt.Sprintf("coopscan: unknown table %q", sc.Table))
		}
		abms[i] = abm
	}
	stream := sys.streams
	sys.streams++
	base := len(sys.rep.Scans)
	for range scans {
		sys.rep.Scans = append(sys.rep.Scans, core.Stats{})
		sys.rep.Streams = append(sys.rep.Streams, stream)
	}
	sys.pending++
	sys.env.ProcessAt(fmt.Sprintf("stream-%d", stream), startAt, func(p *sim.Proc) {
		for i, sc := range scans {
			abm, layout := abms[i], abms[i].Layout()
			fullTuples := layout.ChunkTuples(0)
			opts := core.ScanOptions{CPU: sys.cpu, Quantum: sys.quantum}
			if per := sc.CPUPerChunk; per > 0 {
				opts.Cost = func(_ int, tuples int64) float64 {
					if fullTuples <= 0 {
						return per
					}
					return per * float64(tuples) / float64(fullTuples)
				}
			}
			if hook := sc.OnChunk; hook != nil {
				opts.OnChunk = func(chunk int) {
					hook(chunk, int64(chunk)*fullTuples, layout.ChunkTuples(chunk))
				}
			}
			q := abm.NewQuery(sc.Name, sc.Ranges, sc.Columns)
			sys.rep.Scans[base+i] = core.RunCScan(p, abm, q, opts)
			sys.finished = append(sys.finished, base+i)
		}
		sys.pending--
		if sys.pending == 0 {
			sys.mgr.Shutdown()
		}
	})
}

// Run executes all streams to completion and returns the report. It can be
// called once per System.
func (sys *System) Run() (*Report, error) {
	if sys.ran {
		return nil, fmt.Errorf("coopscan: Run called twice")
	}
	if sys.streams == 0 {
		return nil, fmt.Errorf("coopscan: no streams added")
	}
	sys.ran = true
	if err := sys.env.Run(0); err != nil {
		return nil, fmt.Errorf("coopscan: simulation stuck: %w", err)
	}
	sys.rep.System = sys.mgr.Stats()
	sys.rep.Disk = sys.dsk.Stats()
	sys.rep.Elapsed = sys.env.Now()
	sys.rep.CPUUtilisation = sys.cpu.Utilisation()
	return &sys.rep, nil
}

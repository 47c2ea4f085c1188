package core

import (
	"fmt"

	"coopscan/internal/disk"
	"coopscan/internal/obs"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// ManagerMetrics observes the budget arbiter. The handles are obs metric
// series (nil-safe), so the zero value disables observation entirely; the
// live engine resolves them from its registry and installs them with
// SetMetrics.
type ManagerMetrics struct {
	// Rebalances counts arbiter runs (Rebalance calls).
	Rebalances *obs.Counter
	// GrantBytes tracks each table's current grant, labelled by the table's
	// registration name.
	GrantBytes *obs.GaugeVec
}

// Manager routes cooperative scans across multiple (large) tables that
// share one disk and one buffer budget — the paper's §7.1 requirement that
// "a production-quality implementation of CScan should be able to keep
// track of multiple tables, keeping separate statistics and meta-data for
// each". Each table gets its own ABM (its own chunk map, query registry and
// policy state); the shared device arbitrates between them, and the buffer
// budget is partitioned proportionally to table size.
//
// Small tables should not go through cooperative scanning at all (§7.1:
// "for small tables CScan should simply fall back on Scan"); the manager
// exposes that decision via UseCScan.
//
// A Manager exists in the same two modes as the ABM. Simulation mode
// (NewManager) attaches simulator-backed ABMs sharing one modelled disk.
// Live mode (NewLiveManager) attaches live ABMs (NewLive) under a shared
// wall clock, and additionally acts as the *budget arbiter* of the live
// multi-table engine: RebalanceIfShifted re-divides one shared buffer
// budget across the attached tables when their demand (the bytes their
// streams still have to scan) shifts — the §7.1 observation that ABM "can
// easily adjust itself to a changed buffer size".
type Manager struct {
	env   *sim.Env // nil in live mode
	dsk   *disk.Disk
	clock Clock
	cfg   Config

	// SmallTableChunks is the threshold below which UseCScan recommends a
	// plain Scan; such tables are expected to stay fully buffered.
	SmallTableChunks int

	tables map[string]*ABM
	order  []arbTable
	// rebaseline is set by an attach: the next RebalanceIfShifted re-runs
	// the arbiter and re-baselines every table's stored weight.
	rebaseline bool

	metrics ManagerMetrics
}

// arbTable is one attached table in attach order, with the demand weight
// the arbiter last ran with for it (see RebalanceIfShifted).
type arbTable struct {
	name   string
	abm    *ABM
	weight int64
}

// SetMetrics installs the arbiter's metric handles (see ManagerMetrics).
// Call it before queries run; the zero value turns observation back off.
func (m *Manager) SetMetrics(mm ManagerMetrics) { m.metrics = mm }

// NewManager creates an empty simulation-mode manager; tables are attached
// with Attach.
func NewManager(env *sim.Env, d *disk.Disk, cfg Config) *Manager {
	return &Manager{
		env: env, dsk: d, clock: env, cfg: cfg,
		SmallTableChunks: 4,
		tables:           make(map[string]*ABM),
	}
}

// NewLiveManager creates an empty live-mode manager: attached tables get
// live ABMs (NewLive) sharing the clock, and Rebalance arbitrates one
// buffer budget across them. The caller (internal/engine's Server)
// serialises all calls under its own mutex, exactly as it does for the
// per-table ABMs.
func NewLiveManager(clock Clock, cfg Config) *Manager {
	return &Manager{
		clock: clock, cfg: cfg,
		SmallTableChunks: 4,
		tables:           make(map[string]*ABM),
	}
}

// Attach registers a table layout under its table name and creates its ABM
// (simulated or live, by manager mode) with bufferBytes as its starting
// budget slice. In live mode the slice is only the initial grant — the
// arbiter moves budget between tables afterwards; in simulation mode it is
// fixed for the run (the paper's experiments size pools up front).
func (m *Manager) Attach(layout storage.Layout, bufferBytes int64) *ABM {
	return m.AttachAs(layout.Table().Name, layout, bufferBytes)
}

// AttachAs is Attach under an explicit registration name, for callers whose
// layouts do not carry unique table names (the live engine serves several
// files generated from the same schema).
func (m *Manager) AttachAs(name string, layout storage.Layout, bufferBytes int64) *ABM {
	if _, ok := m.tables[name]; ok {
		panic(fmt.Sprintf("core: table %q already attached", name))
	}
	cfg := m.cfg
	cfg.BufferBytes = bufferBytes
	var a *ABM
	if m.env != nil {
		a = New(m.env, m.dsk, layout, cfg)
	} else {
		a = NewLive(m.clock, layout, cfg)
	}
	m.tables[name] = a
	m.order = append(m.order, arbTable{name: name, abm: a})
	m.rebaseline = true
	return a
}

// Detach removes a table from the manager and shuts its ABM down, so a
// following Rebalance redistributes the freed budget to the remaining
// tables. It reports whether the table was attached.
func (m *Manager) Detach(name string) bool {
	a, ok := m.tables[name]
	if !ok {
		return false
	}
	a.Shutdown()
	delete(m.tables, name)
	for i, t := range m.order {
		if t.name == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return true
}

// For returns the ABM managing the named table.
func (m *Manager) For(table string) (*ABM, bool) {
	a, ok := m.tables[table]
	return a, ok
}

// Tables returns the attached table names in attach order.
func (m *Manager) Tables() []string {
	names := make([]string, len(m.order))
	for i, t := range m.order {
		names[i] = t.name
	}
	return names
}

// UseCScan reports whether a scan of the named table should go through the
// cooperative machinery; small tables fall back to plain scans.
func (m *Manager) UseCScan(table string) bool {
	a, ok := m.tables[table]
	if !ok {
		return false
	}
	return a.layout.NumChunks() > m.SmallTableChunks
}

// Shutdown stops every table's loader processes.
func (m *Manager) Shutdown() {
	for _, t := range m.order {
		t.abm.Shutdown()
	}
}

// Stats sums the per-table counters.
func (m *Manager) Stats() SystemStats {
	var total SystemStats
	for _, t := range m.order {
		s := t.abm.Stats()
		total.Loads += s.Loads
		total.IORequests += s.IORequests
		total.BytesRead += s.BytesRead
		total.Evictions += s.Evictions
	}
	return total
}

// layoutBytes returns a layout's on-disk footprint.
func layoutBytes(l storage.Layout) int64 {
	if d, ok := l.(*storage.DSMLayout); ok {
		return d.TotalBytes()
	}
	return int64(l.NumChunks()) * l.ChunkBytes(0, 0)
}

// chunkFloorBytes is the minimum budget a table's ABM needs to make
// progress: two average chunks (one being consumed, one being loaded).
func chunkFloorBytes(l storage.Layout) int64 {
	n := int64(l.NumChunks())
	if n == 0 {
		return 0
	}
	return 2 * (layoutBytes(l) + n - 1) / n
}

// Rebalance is the live engine's budget arbiter: it re-divides the shared
// budget of total bytes across the attached tables in proportion to their
// current demand — each table weighs the bytes its registered streams
// still have to scan (DemandBytes: remaining chunk bytes per query, with
// starved streams doubled), so a table whose streams are starving over a
// lot of outstanding data pulls budget away from one that is idle,
// coasting on buffer hits, or finishing its last chunks. Every table keeps
// a floor of two chunks (the minimum to overlap one load with one
// consumption), and the split of the remainder falls back to even shares
// when nothing is registered.
//
// Grants are applied through SetBufferBytes with one safety rule: a table
// is never granted less than it currently uses, and the overage is charged
// against the tables granted more than their usage and floor. A table at
// its grant makes room for its next load by evicting its own parts, so its
// usage does not drop: once every table has filled its grant the split
// stops moving, and the arbiter only ever grows a grant into budget nobody
// uses (docs/ARCHITECTURE.md, "No-shrink-below-usage rule"). When the
// overage exceeds the headroom — an attach under full usage — every table
// keeps its usage and floor, and the grants sum above total until a detach
// frees budget.
//
// It returns the applied grants in attach order.
func (m *Manager) Rebalance(total int64) []int64 {
	n := len(m.order)
	if n == 0 {
		return nil
	}
	floors := make([]int64, n)
	used := make([]int64, n)
	weights := make([]float64, n)
	var sumFloor int64
	var sumW float64
	for i, t := range m.order {
		a := t.abm
		floors[i] = chunkFloorBytes(a.layout)
		used[i] = a.UsedBytes()
		weights[i] = float64(a.DemandBytes())
		sumFloor += floors[i]
		sumW += weights[i]
	}
	rem := total - sumFloor
	if rem < 0 {
		rem = 0 // under-provisioned: everyone sits at the floor
	}
	targets := make([]int64, n)
	for i := range targets {
		share := rem / int64(n)
		if sumW > 0 {
			share = int64(float64(rem) * weights[i] / sumW)
		}
		targets[i] = floors[i] + share
	}
	// Apply the no-shrink-below-usage rule, charging the overage against the
	// tables with headroom (granted above both their usage and their floor).
	grants := make([]int64, n)
	var excess, headroom int64
	for i := range grants {
		grants[i] = targets[i]
		if used[i] > grants[i] {
			grants[i] = used[i]
			excess += used[i] - targets[i]
		} else {
			headroom += grants[i] - maxI64(used[i], floors[i])
		}
	}
	if excess > 0 && headroom > 0 {
		for i := range grants {
			if h := grants[i] - maxI64(used[i], floors[i]); h > 0 {
				// When excess exceeds headroom (heavy usage against a tight
				// budget, e.g. an attach mid-traffic), the proportional cut
				// would push the grant below usage/floor; cap it there,
				// rather than hand a table less than it can operate with.
				cut := excess * h / headroom
				if cut > h {
					cut = h
				}
				grants[i] -= cut
			}
		}
	}
	for i, t := range m.order {
		t.abm.SetBufferBytes(grants[i])
	}
	m.metrics.Rebalances.Inc()
	if m.metrics.GrantBytes != nil {
		for i, t := range m.order {
			m.metrics.GrantBytes.With(t.name).Set(grants[i])
		}
	}
	return grants
}

// RebalanceIfShifted runs Rebalance(total) when the demand weights moved
// enough to matter and returns its grants, or nil when nothing moved. A
// table's weight moved when it flipped between zero and non-zero or shifted
// by at least an eighth of the weight the arbiter last ran with for it;
// only a moved weight is stored, so a slow drift still adds up to a re-run.
// Byte demand shrinks with every consumed chunk, and re-running on every
// delta would churn budgets for integer-crumb gains. The first call after an
// attach re-runs unconditionally and re-baselines every stored weight. It
// is the live engine's per-scheduler-pass call, so when nothing moved it
// reads one field per table and allocates nothing.
func (m *Manager) RebalanceIfShifted(total int64) []int64 {
	shifted := m.rebaseline
	for i := range m.order {
		t := &m.order[i]
		if w := t.abm.DemandBytes(); m.rebaseline || weightShifted(t.weight, w) {
			t.weight = w
			shifted = true
		}
	}
	m.rebaseline = false
	if !shifted {
		return nil
	}
	return m.Rebalance(total)
}

// weightShifted is RebalanceIfShifted's per-table test: a zero/non-zero
// flip, or a move of at least an eighth of the stored weight.
func weightShifted(old, new int64) bool {
	if old == new {
		return false
	}
	if old == 0 || new == 0 {
		return true
	}
	d := new - old
	if d < 0 {
		d = -d
	}
	return d*8 >= old
}

// SplitBuffer divides a total buffer budget across layouts proportionally
// to their on-disk footprint, with a floor of minBytes each; it is the
// helper Attach callers typically use.
func SplitBuffer(total int64, minBytes int64, layouts ...storage.Layout) []int64 {
	if len(layouts) == 0 {
		return nil
	}
	sizes := make([]int64, len(layouts))
	var sum int64
	for i, l := range layouts {
		sizes[i] = layoutBytes(l)
		sum += sizes[i]
	}
	out := make([]int64, len(layouts))
	var assigned int64
	for i := range layouts {
		share := int64(float64(total) * float64(sizes[i]) / float64(sum))
		if share < minBytes {
			share = minBytes
		}
		out[i] = share
		assigned += share
	}
	// If the floors overflowed the budget, the caller asked for too little
	// buffer; scale the shares down proportionally but keep the floor.
	if assigned > total {
		for i := range out {
			scaled := int64(float64(out[i]) * float64(total) / float64(assigned))
			if scaled < minBytes {
				scaled = minBytes
			}
			out[i] = scaled
		}
	}
	return out
}

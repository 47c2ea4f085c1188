// Package soak is the randomized multi-seed soak harness guarding the
// incremental scheduler structures at scale. It drives seeded sequences of
// register / scan / cancel / detach / attach operations over mixed NSM and
// DSM tables at two layers:
//
//   - RunCore drives a live-mode core.Manager and its ABMs directly,
//     single-threaded, mirroring the engine's legal call sequences
//     (IssueLoad → Load.Finish/Abort, PickAvailable → Pin → Release,
//     Enqueue → AdmitQueued or a Finish while still queued) with
//     tables attaching and detaching mid-run — and audits every
//     incrementally maintained structure against a linear recomputation
//     (core.ABM.AuditIncremental, which includes the incremental-vs-linear
//     candidate argmin and victim-score cross-checks) at a fixed op cadence.
//
//   - RunEngine runs real engine.Servers over generated table files with
//     iofault injection and concurrent streams (some cancelled mid-scan),
//     verifies every surviving stream against generator-backed goldens,
//     audits mid-flight through Server.AuditTables, and checks the
//     drained-state leak and budget invariants after Close.
//
// `make soak-rand SEEDS=...` runs them race-enabled across a seed list via
// TestSoakRand. RunCore is deterministic per seed and proves it: it folds
// every event into CoreReport.Digest, and TestSoakCoreDeterministic (`make
// test-soak-nondeterminism`) runs each seed twice and compares.
package soak

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"coopscan/internal/colstore/compress"
	"coopscan/internal/core"
	"coopscan/internal/storage"
)

// stepClock is the driver's manual wall clock: every op advances it a
// little, and occasional larger jumps push queries across the starvation
// threshold so the starve-flag flip paths get exercised.
type stepClock struct{ t float64 }

func (c *stepClock) Now() float64 { return c.t }

// nsmSoakLayout is a single-pseudo-column row-wise layout of `chunks`
// fixed-size chunks.
func nsmSoakLayout(name string, chunks int) *storage.NSMLayout {
	const chunkBytes = 1 << 18
	const tupleBytes = 8
	tab := &storage.Table{
		Name:    name,
		Columns: []storage.Column{{Name: "a", Type: storage.Int64, BitsPerValue: 64}},
		Rows:    int64(chunks) * (chunkBytes / tupleBytes),
	}
	return storage.NewNSMLayout(tab, chunkBytes, 0)
}

// dsmSoakLayout is a columnar layout with alternating wide and narrow
// (compressed) columns, so per-column part sizes differ and the DSM victim
// scoring sees non-uniform byte footprints.
func dsmSoakLayout(name string, chunks, cols int) *storage.DSMLayout {
	columns := make([]storage.Column, cols)
	for i := range columns {
		bits := 64.0
		if i%2 == 1 {
			bits = 8
		}
		columns[i] = storage.Column{
			Name: string(rune('a' + i)), Type: storage.Int64,
			Compression: compress.PFOR, BitsPerValue: bits,
		}
	}
	const tuplesPerChunk = int64(10_000)
	tab := &storage.Table{Name: name, Columns: columns, Rows: int64(chunks) * tuplesPerChunk}
	return storage.NewDSMLayout(tab, tuplesPerChunk, 1<<14, 0)
}

// CoreConfig parameterises one RunCore soak.
type CoreConfig struct {
	// Seed selects the deterministic op sequence.
	Seed uint64
	// Policy is the scheduling policy every attached table runs.
	Policy core.Policy
	// Ops is the length of the op sequence (default 4000).
	Ops int
	// MaxTables bounds concurrently attached tables (default 4).
	MaxTables int
	// AuditEvery is the op cadence of the full incremental-state audit
	// (default 16).
	AuditEvery int
}

// CoreReport summarises what a RunCore soak actually exercised, so the
// caller can reject a sequence too tame to mean anything.
type CoreReport struct {
	Ops        int
	Audits     int
	Attaches   int
	Detaches   int
	Registered int
	Enqueued   int // of the registered, how many waited in the admission queue
	Dequeued   int // finished while still queued, never admitted
	Cancelled  int
	Finished   int
	Loads      int
	Aborts     int
	Rebalances int
	// Digest folds every event of the run, in order — table attach and
	// detach, registration, each load proposal and what became of it
	// (issued, vetoed, no room), landing or abort, chunk pick, eviction,
	// arbiter grants. Two runs of one seed must agree on it.
	Digest uint64
}

// soakQuery is one registered query stream: at most one pinned chunk at a
// time (a delivery in progress), exactly like an engine scan stream.
type soakQuery struct {
	q       *core.Query
	pinned  int // chunk currently pinned, -1 when none
	blocked bool
}

// soakTable is one attached table and its driver-side state.
type soakTable struct {
	name       string
	abm        *core.ABM
	layout     storage.Layout
	columnar   bool
	chunks     int
	ncols      int
	chunkBytes int64
	queries    []*soakQuery
	queued     []*core.Query // enqueued, not yet admitted
	inflight   []*core.Load
}

// RunCore executes one seeded core-layer soak and returns its report. Any
// invariant divergence — audit failure, leaked budget, grant below usage —
// comes back as an error naming the op index it surfaced at.
func RunCore(cfg CoreConfig) (CoreReport, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 4000
	}
	if cfg.MaxTables <= 0 {
		cfg.MaxTables = 4
	}
	if cfg.AuditEvery <= 0 {
		cfg.AuditEvery = 16
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)*6364136223846793005 + 1442695040888963407))
	clk := &stepClock{}
	mgr := core.NewLiveManager(clk, core.Config{Policy: cfg.Policy, StarveThreshold: 2})
	var rep CoreReport
	var tables []*soakTable
	nextID := 0
	digest := fnv.New64a()
	event := func(format string, args ...any) { fmt.Fprintf(digest, format+"\n", args...) }

	// One fixed budget for the whole run, generous enough that Rebalance is
	// never under-provisioned at MaxTables (floors are two chunks each).
	probe := dsmSoakLayout("probe", 4, 6)
	maxChunk := probe.ChunkBytes(0, storage.AllCols(6))
	if maxChunk < 1<<18 {
		maxChunk = 1 << 18
	}
	total := int64(cfg.MaxTables) * 5 * maxChunk

	rebalance := func(op int) error {
		grants := mgr.Rebalance(total)
		rep.Rebalances++
		event("rebalance %v", grants)
		for i, g := range grants {
			if g < 0 {
				return fmt.Errorf("soak: op %d: negative grant %d for table %d", op, g, i)
			}
		}
		// The arbiter never grants a table less than it uses.
		for _, t := range tables {
			if free := t.abm.FreeBytes(); free < 0 {
				return fmt.Errorf("soak: op %d: table %s over its grant after a rebalance: free = %d", op, t.name, free)
			}
		}
		return nil
	}

	attach := func(op int) error {
		if len(tables) >= cfg.MaxTables {
			return nil
		}
		nextID++
		name := fmt.Sprintf("t%d", nextID)
		t := &soakTable{name: name, columnar: rng.Intn(2) == 1, chunks: 8 + rng.Intn(24), ncols: 1}
		if t.columnar {
			t.ncols = 2 + rng.Intn(4)
			t.layout = dsmSoakLayout(name, t.chunks, t.ncols)
			t.chunkBytes = t.layout.ChunkBytes(0, storage.AllCols(t.ncols))
		} else {
			t.layout = nsmSoakLayout(name, t.chunks)
			t.chunkBytes = t.layout.ChunkBytes(0, 0)
		}
		t.abm = mgr.AttachAs(name, t.layout, 2*t.chunkBytes)
		t.abm.SetEvictHook(func(chunk, col int, _ any) { event("evict %s c%d/%d", name, chunk, col) })
		tables = append(tables, t)
		rep.Attaches++
		event("attach %s columnar=%v chunks=%d cols=%d", name, t.columnar, t.chunks, t.ncols)
		return rebalance(op)
	}

	// detach removes a quiesced table (no queries, no in-flight loads) and
	// hands its budget back to the arbiter.
	detach := func(op int) error {
		for _, i := range rng.Perm(len(tables)) {
			t := tables[i]
			if len(t.queries) > 0 || len(t.queued) > 0 || len(t.inflight) > 0 {
				continue
			}
			mgr.Detach(t.name)
			tables = append(tables[:i], tables[i+1:]...)
			rep.Detaches++
			event("detach %s", t.name)
			return rebalance(op)
		}
		return nil
	}

	// register builds a query and registers it at once, or — queued — puts
	// it in the admission queue, as every engine scan starts, for a later
	// admit to register.
	register := func(t *soakTable, queued bool) {
		if len(t.queries)+len(t.queued) >= 40 {
			return
		}
		s := rng.Intn(t.chunks)
		e := s + 1 + rng.Intn(t.chunks-s)
		rs := storage.NewRangeSet(storage.Range{Start: s, End: e})
		var cols storage.ColSet
		if t.columnar {
			cols = cols.Add(rng.Intn(t.ncols)).Add(rng.Intn(t.ncols))
		}
		q := t.abm.NewQuery(fmt.Sprintf("%s-q%d", t.name, len(t.queries)+len(t.queued)), rs, cols)
		rep.Registered++
		if queued {
			q.SetWaker(func() { event("admitted %s", q.Name) })
			t.abm.Enqueue(q)
			t.queued = append(t.queued, q)
			rep.Enqueued++
			event("enqueue %s %v %v", q.Name, rs, cols)
			return
		}
		t.abm.Register(q)
		t.queries = append(t.queries, &soakQuery{q: q, pinned: -1})
		event("register %s %v %v", q.Name, rs, cols)
	}

	// admit registers every queued query, in enqueue order, as the engine's
	// scheduler pass does; each one's waker records its admission.
	admit := func(t *soakTable) {
		event("admit %s %d", t.name, len(t.queued))
		t.abm.AdmitQueued()
		for _, q := range t.queued {
			t.queries = append(t.queries, &soakQuery{q: q, pinned: -1})
		}
		t.queued = nil
	}

	// dequeue finishes a query still in the admission queue: a scan
	// cancelled before the scheduler admitted it.
	dequeue := func(t *soakTable) {
		if len(t.queued) == 0 {
			return
		}
		i := rng.Intn(len(t.queued))
		q := t.queued[i]
		t.abm.Finish(q)
		t.queued = append(t.queued[:i], t.queued[i+1:]...)
		rep.Dequeued++
		event("dequeue %s", q.Name)
	}

	finish := func(t *soakTable, i int) {
		sq := t.queries[i]
		t.abm.Finish(sq.q)
		t.queries = append(t.queries[:i], t.queries[i+1:]...)
		event("finish %s", sq.q.Name)
	}

	// issue mirrors the engine's issueOne for one table, bounded to four
	// loads in flight like the engine's default depth; now and then it
	// vetoes the proposal, as the engine does for a quarantined part. A
	// refusal nobody vetoed must leave the table a way forward.
	issue := func(t *soakTable) error {
		if len(t.inflight) >= 4 {
			return nil
		}
		veto := rng.Intn(16) == 0
		ld := t.abm.IssueLoad(func(d core.LoadDecision) bool {
			event("propose %s c%d %v for %s veto=%v", t.name, d.Chunk, d.Cols, d.Query.Name, veto)
			return !veto
		})
		if ld == nil {
			event("issue %s: nothing", t.name)
			if veto {
				return nil
			}
			if err := t.abm.AuditStalled(); err != nil {
				return fmt.Errorf("soak: table %s: %w", t.name, err)
			}
			return nil
		}
		event("issue %s c%d %v", t.name, ld.Decision().Chunk, ld.Decision().Cols)
		t.inflight = append(t.inflight, ld)
		return nil
	}

	// land completes (or, rarely, aborts) a random in-flight load, in
	// whatever order the rng picks — out-of-issue-order completions, like
	// the engine's worker pool.
	land := func(t *soakTable) {
		if len(t.inflight) == 0 {
			return
		}
		i := rng.Intn(len(t.inflight))
		ld := t.inflight[i]
		t.inflight = append(t.inflight[:i], t.inflight[i+1:]...)
		if rng.Intn(10) == 0 {
			ld.Abort()
			rep.Aborts++
			event("abort %s #%d", t.name, i)
			return
		}
		ld.Finish()
		rep.Loads++
		event("land %s #%d", t.name, i)
	}

	// deliver advances one query stream a half-step: release the pinned
	// chunk if one is held (finishing the query when that drained its
	// range), otherwise pick-and-pin the next available chunk, going
	// blocked when nothing is available — one delivery at a time per
	// stream, pins held across other tables' ops, exactly like the engine.
	deliver := func(t *soakTable) {
		if len(t.queries) == 0 {
			return
		}
		i := rng.Intn(len(t.queries))
		sq := t.queries[i]
		if sq.pinned >= 0 {
			c := sq.pinned
			sq.pinned = -1
			t.abm.Release(sq.q, c)
			if sq.q.Finished() {
				finish(t, i)
				rep.Finished++
			}
			return
		}
		c := t.abm.Policy().PickAvailable(sq.q)
		event("pick %s c%d", sq.q.Name, c)
		if c < 0 {
			sq.q.SetBlocked(true)
			sq.blocked = true
			return
		}
		if sq.blocked {
			sq.q.SetBlocked(false)
			sq.blocked = false
		}
		t.abm.Pin(sq.q, c, nil)
		sq.pinned = c
	}

	// cancel finishes a query mid-range — only between deliveries (no pin
	// held), the same window the engine observes cancellation in.
	cancel := func(t *soakTable) {
		for _, i := range rng.Perm(len(t.queries)) {
			sq := t.queries[i]
			if sq.pinned >= 0 || sq.q.Finished() {
				continue
			}
			finish(t, i)
			rep.Cancelled++
			return
		}
	}

	// audit also holds the fact nothing drains an excess for: with the
	// arbiter never granting less than a table uses, and a load reserving
	// only the bytes its eviction pass made room for, a table on a
	// page-disjoint layout — every NSM table here, every table the live
	// engine serves — is never over its grant. The soak's DSM tables share
	// boundary pages between adjacent chunks: a load's own eviction pass can
	// free boundary pages the load then needs, leaving the table over its
	// grant by those pages until its next eviction pass or rebalance.
	audit := func(op int) error {
		rep.Audits++
		for _, t := range tables {
			if free := t.abm.FreeBytes(); free < 0 && !t.columnar {
				return fmt.Errorf("soak: op %d: table %s over its grant: free = %d", op, t.name, free)
			}
			if err := t.abm.AuditIncremental(); err != nil {
				return fmt.Errorf("soak: op %d: table %s: %w", op, t.name, err)
			}
		}
		return nil
	}

	if err := attach(0); err != nil {
		return rep, err
	}
	for op := 0; op < cfg.Ops; op++ {
		clk.t += rng.Float64() * 0.05
		if rng.Intn(50) == 0 {
			clk.t += 1 // push waiters across the starvation threshold
		}
		var t *soakTable
		if len(tables) > 0 {
			t = tables[rng.Intn(len(tables))]
		}
		var err error
		switch r := rng.Intn(100); {
		case r < 4:
			err = attach(op)
		case r < 6:
			err = detach(op)
		case r < 12:
			if t != nil {
				register(t, false)
			}
		case r < 16:
			if t != nil {
				register(t, true)
			}
		case r < 18:
			if t != nil {
				admit(t)
			}
		case r < 19:
			if t != nil {
				dequeue(t)
			}
		case r < 21:
			if t != nil {
				cancel(t)
			}
		case r < 45:
			if t != nil {
				err = issue(t)
			}
		case r < 65:
			if t != nil {
				land(t)
			}
		case r < 97:
			if t != nil {
				deliver(t)
			}
		default:
			err = rebalance(op)
		}
		if err != nil {
			return rep, err
		}
		if op%cfg.AuditEvery == 0 {
			if err := audit(op); err != nil {
				return rep, err
			}
		}
	}
	rep.Ops = cfg.Ops

	// Drain: abort what is still in flight, release held pins, finish every
	// query, queued or registered, and hold the quiescent-state invariants
	// on every table.
	for _, t := range tables {
		for len(t.queued) > 0 {
			dequeue(t)
		}
		for _, ld := range t.inflight {
			ld.Abort()
			rep.Aborts++
		}
		t.inflight = nil
		for len(t.queries) > 0 {
			sq := t.queries[0]
			if sq.pinned >= 0 {
				t.abm.Release(sq.q, sq.pinned)
				sq.pinned = -1
			}
			finish(t, 0)
		}
	}
	if err := audit(cfg.Ops); err != nil {
		return rep, err
	}
	for _, t := range tables {
		if err := t.abm.AuditDrained(); err != nil {
			return rep, fmt.Errorf("soak: drained: table %s: %w", t.name, err)
		}
		st := t.abm.Stats()
		event("drained %s Loads=%d IORequests=%d BytesRead=%d Evictions=%d",
			t.name, st.Loads, st.IORequests, st.BytesRead, st.Evictions)
	}
	rep.Digest = digest.Sum64()
	return rep, nil
}

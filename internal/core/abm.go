// Package core implements the paper's primary contribution: the Cooperative
// Scans framework, consisting of the CScan scan driver and the Active Buffer
// Manager (ABM) that dynamically schedules chunk-granularity I/O across all
// concurrent scans of a table.
//
// Four scheduling policies are provided, mirroring the paper's §3-§4 and §6:
//
//   - Normal: per-query strictly-sequential demand reads over an LRU pool.
//   - Attach: circular scans; a new query attaches to the running scan with
//     the largest remaining overlap and wraps around its own range.
//   - Elevator: one global sequential cursor for the whole system.
//   - Relevance: the paper's new policy, driven by per-chunk relevance
//     functions with starvation tracking and short-query priority
//     (Figure 3 for NSM, Figure 11 for DSM).
//
// All policies run against the same page-accounted buffer cache, the same
// simulated disk, and the same CScan driver, so their differences are purely
// the scheduling decisions — as in the paper's Cooperative Scans framework,
// which "can run the basic normal, attach and elevator policies" next to
// relevance.
//
// # Incremental relevance scheduling
//
// The paper's §4 implementation concern (measured in its Figure 8) is that
// relevance scheduling cost grows with the number of concurrent queries and
// chunks. A naive implementation pays O(queries × poolParts) per decision
// round just to recompute starvation, plus O(queries) per candidate chunk
// inside loadRelevance/keepRelevance — O(queries × chunks) per decision.
// This package instead maintains the scheduler's derived state
// incrementally, at the events that change it:
//
//   - Query.avail indexes each query's needed, fully resident chunks (a
//     chunk-keyed heap, so the sequential pickers read their next chunk at
//     the root). A part load, eviction or chunk consumption adjusts only
//     the queries interested in that chunk, so starvation checks are O(1)
//     flag reads and chooseAvailableChunk iterates one query's available
//     chunks, not the pool.
//   - Query.starved/almostStarved flip only when the availability count
//     crosses the configured thresholds; each flip is folded into the
//     per-chunk ABM.starvedInterest/almostInterest counters (alongside the
//     long-standing interestCount) with one walk over the query's remaining
//     range. The NSM loadRelevance and keepRelevance then read a counter
//     instead of scanning every registered query per candidate chunk.
//   - For DSM, registered queries are additionally grouped by their exact
//     column set (groups.go), with the same interest counters kept per
//     group. The Figure-11 column-overlap terms (starved-overlap counts and
//     column unions in loadRelevance/keepRelevance, per-column usefulness,
//     the elevator's per-chunk load set) iterate the handful of distinct
//     column sets instead of every query.
//   - bufcache.residentCols/loadingCols hold per-chunk residency bit sets,
//     making "is chunk c resident / in flight for these columns?" a single
//     bit test, and bufcache.occupied lists the chunks with buffered parts
//     so registration seeds availability without a table scan.
//   - Load-candidate ranking and victim selection are heap-ordered, on one
//     indexedHeap implementation (heap.go). ABM.loadCands ranks the starved
//     queries by a time-free transform of queryRelevance, re-keyed at the
//     per-query events that move it. The LRU policies pop victims off
//     bufcache.lru, maintained at every load, touch, unpin and evict. The
//     relevance policy keeps every loaded part in relevStrategy.victims,
//     ordered by keepRelevance: chunks whose counters or residency changed
//     are marked dirty in O(1) and re-keyed at the start of the next
//     eviction round, so scores are frozen per round — a mid-round
//     starvation flip cannot reorder victims — at a cost proportional to
//     what changed, not to the pool.
//
// The resulting per-decision cost is O(affected entries): selecting a load
// candidate pops the candidate heap and walks one query's remaining range
// with O(1) scoring; selecting an available chunk walks that query's
// available chunks; each eviction *selects* its victim in O(log poolParts).
// (Executing an eviction still pays the cache's order-preserving removal
// from its loaded-parts slice — a linear walk with a trivial constant, kept
// because the DSM useless-column pass depends on the slice's load order;
// see bufcache.evict.) Every heap order is a strict total order embedding
// the historical (registration seq) and (chunk, col) tie-breaks, so
// decisions do not depend on heap layout or operation history.
//
// There is one decision path. The simulator (New) and the live engine
// (NewLive) build the same state and run the same code, so the simulator's
// decision golden, the paper's tables and the incremental-vs-linear audits
// (AuditIncremental) all exercise what serves scans.
package core

import (
	"fmt"
	"time"

	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// Policy selects the scheduling policy of an ABM instance.
type Policy int

// The four policies of the paper.
const (
	Normal Policy = iota
	Attach
	Elevator
	Relevance
)

func (p Policy) String() string {
	switch p {
	case Normal:
		return "normal"
	case Attach:
		return "attach"
	case Elevator:
		return "elevator"
	case Relevance:
		return "relevance"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Policies lists all policies in presentation order.
var Policies = []Policy{Normal, Attach, Elevator, Relevance}

// Config parameterises an ABM instance.
type Config struct {
	// Policy is the scheduling policy.
	Policy Policy
	// BufferBytes is the buffer-pool capacity (the paper's NSM default is
	// 64 chunks × 16 MB = 1 GB).
	BufferBytes int64
	// StarveThreshold is the available-chunk count below which a query
	// counts as starved; the paper uses 2.
	StarveThreshold int
	// ElevatorWindow bounds how many loaded-but-unconsumed chunks the
	// elevator cursor may be ahead of the slowest interested query.
	ElevatorWindow int
	// Prefetch is the per-query read-ahead depth of the sequential
	// policies (normal/attach); the paper prefetches one chunk ahead.
	Prefetch int
	// MeasureScheduling records wall-clock time spent inside relevance
	// decisions (for the paper's Figure 8).
	MeasureScheduling bool

	// NoShortQueryPriority disables the -chunksNeeded(q) term of
	// queryRelevance (ablation: queries are then served round-robin-ish by
	// waiting time alone).
	NoShortQueryPriority bool
	// NoWaitPromotion disables the waiting-time term of queryRelevance
	// (ablation: long queries can starve behind a stream of short ones).
	NoWaitPromotion bool
}

// Defaults fills in zero fields.
func (c Config) withDefaults() Config {
	if c.StarveThreshold <= 0 {
		c.StarveThreshold = 2
	}
	if c.ElevatorWindow <= 0 {
		c.ElevatorWindow = 4
	}
	if c.Prefetch < 0 {
		c.Prefetch = 0
	} else if c.Prefetch == 0 {
		c.Prefetch = 1
	}
	return c
}

// SystemStats aggregates ABM-level counters over a run.
type SystemStats struct {
	Loads      int   // chunk-part loads performed
	IORequests int   // disk requests issued (one per contiguous cold run)
	BytesRead  int64 // bytes transferred for those requests
	Evictions  int   // chunk-parts evicted
}

// ABM is the Active Buffer Manager: it tracks every active CScan's data
// needs and schedules chunk loads and evictions according to the policy.
//
// An ABM exists in one of two modes. Simulation mode (New) couples it to a
// discrete-event environment and a simulated disk; the policy strategies
// then also drive the blocking scan/loader loops. Live mode (NewLive) has
// no environment: the ABM is pure bookkeeping plus the SchedulerPolicy
// decision core, and the live engine (internal/engine) supplies the
// goroutines, the real file I/O and the wall clock.
type ABM struct {
	env    *sim.Env // nil in live mode
	disk   *disk.Disk
	clock  Clock
	layout storage.Layout
	cfg    Config

	cache   *bufcache
	queries []*Query
	nextID  int

	// loadCands indexes the registered queries that are starved AND still
	// have a non-resident needed chunk — the exact candidate set of the
	// relevance loader's nextLoad — as a min-heap on (Query.candKey,
	// registration seq), with Query.loadPos the heap slot. Membership is
	// re-derived by updateStarveFlags at every event that can change it, so
	// a failing decision round (nothing loadable anywhere) is an O(1)
	// empty-heap check instead of a walk over every registered query.
	loadCands indexedHeap[*Query, candOrder]
	regSeq    int
	// candDirty marks the candidate keys stale: candKey embeds the
	// registered-query count (the wait-normalisation denominator), so a
	// register or unregister shifts every key. nextLoad re-keys and
	// re-heapifies lazily — one rebuild per shift, not per decision, and
	// batched registrations amortise to one.
	candDirty bool
	// candAside is nextLoad's scratch for popped candidates with nothing
	// loadable; they are re-pushed after the decision.
	candAside []*Query

	// blockedCount tracks how many registered queries are currently marked
	// blocked (Query.SetBlocked), so the relevance policy's "is every query
	// blocked?" eviction relaxation is one comparison instead of a registry
	// walk.
	blockedCount int

	// demandBytes maintains the DemandBytes sum (per-query remaining ×
	// per-chunk footprint, starved doubled) — so the budget arbiter's
	// per-scheduler-pass demand polls are O(1) reads instead of registry
	// walks. Query.demandContrib holds each query's term.
	demandBytes int64

	// chunkQueries[c] lists the registered queries that still need chunk c
	// (Query.chunkPos[c] is the slot), so part residency events touch only
	// the interested queries instead of the whole registry. List order is
	// arbitrary: every consumer either updates per-query state or takes a
	// strict-total-order extremum, so decisions are order-independent.
	chunkQueries [][]*Query

	// vicDirty/vicDirtyList (allocated only for relevance ABMs) mark chunks
	// whose interest counters or residency changed since the incremental
	// victim heap last re-keyed them. Marking is O(1) at the sites that
	// already touch the chunk; the heap re-keys the marked chunks' resident
	// parts lazily at the next eviction round, so a round's cost is
	// proportional to what actually changed, not to the pool.
	vicDirty     []bool
	vicDirtyList []int

	// interestCount[c] is the number of registered queries that still need
	// chunk c, maintained incrementally so relevance functions are O(1) in
	// the common (NSM) case.
	interestCount []int

	// starvedInterest[c] / almostInterest[c] count the currently starved
	// (resp. almost-starved) queries that still need chunk c. They are
	// updated only when a query's starvation state flips or a needed chunk
	// is consumed, so loadRelevance and keepRelevance read them in O(1)
	// instead of scanning every registered query per candidate chunk.
	starvedInterest []int
	almostInterest  []int

	// groups indexes the registered queries of a DSM layout by their exact
	// column set, with per-group per-chunk interest counters maintained at
	// the same events as the global ones. The Figure-11 column-overlap
	// terms then iterate the distinct column sets instead of every query
	// (see groups.go). Nil for NSM layouts.
	groups   []*colGroup
	groupIdx map[storage.ColSet]*colGroup

	// assembling lists the chunks being gathered into completeness, one
	// entry per gatherer: a demand-driven scan of the simulator's
	// normal/attach policies, or an open load ticket of the live engine.
	// Eviction avoids their parts (see assemblingPart). Scans release their
	// marks when they cannot obtain buffer space, so assembly degrades to
	// serial rather than deadlocking; a ticket holds its mark for one read.
	assembling []assembly

	// fresh marks chunks the live engine finished loading that no query has
	// pinned yet; eviction avoids them while some query still needs them.
	// The simulator guarantees the same property by yielding after each
	// load (the loaders' p.Wait(0)) so the woken queries pin before the
	// next eviction pass; the live engine's goroutines have no such
	// cooperative ordering, so the protection is explicit. Always empty in
	// sim mode.
	fresh map[int]bool

	// openLoads counts the tickets IssueLoad handed out that have not been
	// landed; AuditDrained requires zero.
	openLoads int

	// activity is the global "something changed" broadcast: chunk loaded,
	// chunk consumed, query registered/unregistered. Blocked parties wake
	// and re-examine the world; the simulation kernel makes this pattern
	// deterministic. Nil in live mode, where the engine's condition
	// variable plays this role.
	activity *sim.Signal

	// onEvict, when set, observes every part eviction and receives the
	// part's frame (live mode: the engine returns it to its allocator).
	onEvict func(chunk, col int, frame any)

	closed bool
	strat  strategy
	// relev is strat downcast to the relevance strategy (nil otherwise),
	// for the victim-heap hooks on the eviction/load paths.
	relev *relevStrategy

	// evictAside is makeSpace's scratch for heap entries popped but not
	// evicted (pinned, assembling, fresh or kept); they are pushed back when
	// the pass ends.
	evictAside []*part

	stats SystemStats

	// wall-clock scheduling cost (Figure 8). Windows are measured as
	// monotonic deltas against timeBase (two cheap nanotime reads instead
	// of two full wall-clock reads), so the measurement tax per decision
	// stays small against the O(log n) decisions it meters.
	timeBase   time.Time
	schedNanos int64
	schedCalls int64

	// chunkCost is the approximate clock-time cost of loading one full
	// chunk, used to normalise waiting time in queryRelevance: its transfer
	// time on the simulated disk, or its bytes at 1 GB/s in live mode.
	chunkCost float64
}

// strategy is one policy's full decision core: the SchedulerPolicy surface
// callers outside the package see, plus the load-side half only the ABM's
// own load step (proposeLoad, IssueLoad, loader) may call.
type strategy interface {
	SchedulerPolicy
	// nextLoad picks the most valuable chunk to load right now, or ok=false
	// when nothing is loadable (nothing starved, window full, or all
	// remaining work already resident or in flight).
	nextLoad() (LoadDecision, bool)
	// commitLoad records that the decision is about to be executed (buffer
	// space has been ensured): the elevator logs the interested queries and
	// advances its cursor here.
	commitLoad(d LoadDecision)
}

// New creates an ABM over the layout, backed by the simulated disk, and
// starts the central loader process of the elevator and relevance policies.
func New(env *sim.Env, d *disk.Disk, layout storage.Layout, cfg Config) *ABM {
	a := newSim(env, d, layout, cfg)
	if _, demand := a.strat.(*seqStrategy); !demand {
		env.Process("abm-"+a.cfg.Policy.String(), a.loader)
	}
	return a
}

// newSim is New without the loader process: loads must then be driven
// externally, as the white-box tests that probe the relevance functions do.
func newSim(env *sim.Env, d *disk.Disk, layout storage.Layout, cfg Config) *ABM {
	a := newABM(env, d, layout, cfg)
	a.env = env
	a.activity = env.NewSignal("abm-activity")
	return a
}

// NewLive creates a simulation-free ABM: bookkeeping plus the policy
// decision core, driven externally (by internal/engine) under the given
// clock. The central loader process is never started; the engine's
// scheduler goroutine calls IssueLoad instead. The decision state
// is the one New builds: both worlds run the same code on the same
// structures.
func NewLive(clock Clock, layout storage.Layout, cfg Config) *ABM {
	return newABM(clock, nil, layout, cfg)
}

// newABM builds the state both modes share; d is the simulated disk, nil in
// live mode.
func newABM(clock Clock, d *disk.Disk, layout storage.Layout, cfg Config) *ABM {
	cfg = cfg.withDefaults()
	a := &ABM{
		clock:           clock,
		disk:            d,
		layout:          layout,
		cfg:             cfg,
		cache:           newBufcache(layout, cfg.BufferBytes),
		interestCount:   make([]int, layout.NumChunks()),
		starvedInterest: make([]int, layout.NumChunks()),
		almostInterest:  make([]int, layout.NumChunks()),
		fresh:           make(map[int]bool),
		chunkQueries:    make([][]*Query, layout.NumChunks()),
		timeBase:        time.Now(),
	}
	full := layout.ChunkBytes(0, storage.AllCols(min(layout.Table().NumColumns(), storage.MaxColumns)))
	if d != nil {
		a.chunkCost = d.TransferTime(maxI64(full, 1))
	} else {
		a.chunkCost = float64(full) / 1e9
	}
	if layout.Columnar() {
		a.groupIdx = make(map[storage.ColSet]*colGroup)
	}
	switch cfg.Policy {
	case Normal:
		a.strat = &seqStrategy{a: a, attach: false}
	case Attach:
		a.strat = &seqStrategy{a: a, attach: true}
	case Elevator:
		a.strat = &elevStrategy{a: a}
	case Relevance:
		a.vicDirty = make([]bool, layout.NumChunks())
		a.vicDirtyList = make([]int, 0, layout.NumChunks())
		a.relev = &relevStrategy{a: a}
		a.strat = a.relev
	default:
		panic(fmt.Sprintf("core: unknown policy %v", cfg.Policy))
	}
	return a
}

// broadcast wakes the simulation's blocked parties; a no-op in live mode.
func (a *ABM) broadcast() {
	if a.activity != nil {
		a.activity.Broadcast()
	}
}

// Layout returns the layout the ABM schedules over.
func (a *ABM) Layout() storage.Layout { return a.layout }

// Config returns the effective configuration.
func (a *ABM) Config() Config { return a.cfg }

// NewQuery builds a Query over the given ranges and columns; it is not yet
// registered. For NSM layouts cols is ignored and may be zero.
func (a *ABM) NewQuery(name string, ranges storage.RangeSet, cols storage.ColSet) *Query {
	if ranges.Empty() {
		panic(fmt.Sprintf("core: query %q over empty range set", name))
	}
	if ranges.Max() >= a.layout.NumChunks() {
		panic(fmt.Sprintf("core: query %q range %v beyond table (%d chunks)", name, ranges, a.layout.NumChunks()))
	}
	if a.layout.Columnar() && cols.Empty() {
		panic(fmt.Sprintf("core: DSM query %q needs a column set", name))
	}
	a.nextID++
	q := &Query{
		ID: a.nextID, Name: name, Ranges: ranges, Cols: cols,
		needed:   make([]bool, a.layout.NumChunks()),
		chunkPos: make([]int, a.layout.NumChunks()),
		cursor:   ranges.Min(),
		weight:   1,
	}
	q.avail.ord.pos = make([]int, a.layout.NumChunks())
	for c := range q.chunkPos {
		q.avail.ord.pos[c] = -1
		q.chunkPos[c] = -1
	}
	ranges.Each(func(c int) { q.needed[c] = true; q.neededCount++ })
	return q
}

// Register announces the query's data needs to the ABM (a CScan "registers
// itself as an active scan", §4).
func (a *ABM) Register(q *Query) {
	if a.closed {
		panic("core: Register on closed ABM")
	}
	q.enterTime = a.clock.Now()
	q.lastService = q.enterTime
	q.seq = a.regSeq
	a.regSeq++
	q.loadPos = -1
	q.abm = a
	q.chunkBytesAvg = a.queryChunkBytes(q)
	a.queries = append(a.queries, q)
	a.candDirty = true
	q.group = a.joinGroup(q.Cols)
	for c := 0; c < len(q.needed); c++ {
		if q.needed[c] {
			a.interestCount[c]++
			if q.group != nil {
				q.group.interested[c]++
			}
			q.chunkPos[c] = len(a.chunkQueries[c])
			a.chunkQueries[c] = append(a.chunkQueries[c], q)
			a.markVicDirty(c)
		}
	}
	// Seed the availability index from the chunks already buffered: only
	// occupied chunks can be resident, so this is bounded by the pool.
	cols := a.queryCols(q)
	for _, c := range a.cache.occupiedChunks() {
		if q.needs(c) && a.cache.chunkLoadedFor(cols, c) {
			q.avail.items = append(q.avail.items, c)
		}
	}
	q.avail.init()
	a.updateStarveFlags(q)
	a.refreshDemand(q)
	a.strat.Register(q)
	a.broadcast()
}

// unregister removes a finished (or abandoned) query.
func (a *ABM) unregister(q *Query) {
	for i, o := range a.queries {
		if o == q {
			a.queries = append(a.queries[:i], a.queries[i+1:]...)
			break
		}
	}
	a.candDirty = true
	for c := 0; c < len(q.needed); c++ {
		if q.needed[c] {
			a.interestCount[c]--
			if q.starved {
				a.starvedInterest[c]--
			}
			if q.almostStarved {
				a.almostInterest[c]--
			}
			if g := q.group; g != nil {
				g.interested[c]--
				if q.starved {
					g.starved[c]--
				}
				if q.almostStarved {
					g.almost[c]--
				}
			}
			a.dropChunkQuery(q, c)
			a.markVicDirty(c)
		}
	}
	q.starved, q.almostStarved = false, false
	a.demandBytes -= q.demandContrib
	q.demandContrib = 0
	q.SetBlocked(false)
	q.abm = nil
	q.waker = nil
	a.loadCands.remove(q)
	a.leaveGroup(q.group)
	q.group = nil
	a.strat.Unregister(q)
	a.broadcast()
}

// dropChunkQuery removes q from the chunkQueries[c] inverted index
// (swap-remove; list order is decision-irrelevant).
func (a *ABM) dropChunkQuery(q *Query, c int) {
	i := q.chunkPos[c]
	if i < 0 {
		return
	}
	list := a.chunkQueries[c]
	last := len(list) - 1
	moved := list[last]
	list[i] = moved
	moved.chunkPos[c] = i
	a.chunkQueries[c] = list[:last]
	q.chunkPos[c] = -1
}

// Next delivers the next chunk for q (pinned) or ok=false at end of scan.
func (a *ABM) Next(p *sim.Proc, q *Query) (int, bool) {
	if q.finished() {
		return 0, false
	}
	if s, demand := a.strat.(*seqStrategy); demand {
		return s.next(p, q)
	}
	return a.awaitAvailable(p, q)
}

// Release returns chunk c after processing: parts are unpinned, the chunk
// is marked consumed, the consuming query's availability and the chunk's
// interest counters are adjusted, and interested parties are woken.
func (a *ABM) Release(q *Query, c int) {
	a.cache.unpinAll(a.queryCols(q), c, a.clock.Now())
	q.markConsumed(c)
	a.interestCount[c]--
	if q.starved {
		a.starvedInterest[c]--
	}
	if q.almostStarved {
		a.almostInterest[c]--
	}
	if g := q.group; g != nil {
		g.interested[c]--
		if q.starved {
			g.starved[c]--
		}
		if q.almostStarved {
			g.almost[c]--
		}
	}
	a.dropChunkQuery(q, c)
	a.markVicDirty(c)
	a.loseAvailability(q, c)
	q.lastService = a.clock.Now()
	a.refreshDemand(q)
	a.candFix(q)
	a.strat.Consumed(q, c)
	a.broadcast()
}

// Finish completes the scan: records its end time and unregisters it.
func (a *ABM) Finish(q *Query) Stats {
	q.doneTime = a.clock.Now()
	a.unregister(q)
	return q.stats()
}

// Shutdown stops central loader processes once all work is submitted and
// finished; it must be called before the simulation can drain.
func (a *ABM) Shutdown() {
	a.closed = true
	a.broadcast()
}

// Stats returns system-level counters.
func (a *ABM) Stats() SystemStats { return a.stats }

// SchedulingCost returns the cumulative wall-clock time spent in relevance
// decisions and the number of decision calls (Figure 8); zeros unless
// Config.MeasureScheduling is set.
func (a *ABM) SchedulingCost() (time.Duration, int64) {
	return time.Duration(a.schedNanos), a.schedCalls
}

// schedStart opens a decision measurement window: a monotonic reading
// against the ABM's time base.
func (a *ABM) schedStart() time.Duration { return time.Since(a.timeBase) }

// schedEnd closes a window opened by schedStart and counts the decision.
func (a *ABM) schedEnd(start time.Duration) {
	a.schedNanos += int64(time.Since(a.timeBase) - start)
	a.schedCalls++
}

// queryCols returns the parts-column set for q under this layout.
func (a *ABM) queryCols(q *Query) storage.ColSet {
	if !a.layout.Columnar() {
		return 0
	}
	return q.Cols
}

// availableCount recounts the chunks that are needed by q and fully
// resident for q's columns by scanning the loaded parts, stopping early at
// limit. It is the from-scratch reference for the incrementally maintained
// Query.avail (tests assert the two always agree); the scheduler itself
// only reads the maintained state.
func (a *ABM) availableCount(q *Query, limit int) int {
	cols := a.queryCols(q)
	anchor := anchorCol(a.layout.Columnar(), cols)
	n := 0
	for _, pt := range a.cache.loaded {
		if pt.key.col != anchor || pt.state != partLoaded || !q.needs(pt.key.chunk) {
			continue
		}
		if cols != 0 && !a.cache.chunkLoadedFor(cols, pt.key.chunk) {
			continue
		}
		n++
		if n >= limit {
			return n
		}
	}
	return n
}

// anchorCol returns the part column that identifies a chunk's residency for
// a query: -1 for NSM, the query's lowest column for DSM.
func anchorCol(columnar bool, cols storage.ColSet) int {
	if !columnar {
		return -1
	}
	for c := 0; c < storage.MaxColumns; c++ {
		if cols.Has(c) {
			return c
		}
	}
	return -1
}

func (a *ABM) starved(q *Query) bool       { return q.starved }
func (a *ABM) almostStarved(q *Query) bool { return q.almostStarved }

// updateStarveFlags re-derives q's starvation flags from the maintained
// availability count and folds any flip into the per-chunk starved/almost
// interest counters (global and column-group) with one walk over the
// query's remaining range.
func (a *ABM) updateStarveFlags(q *Query) {
	starved := q.available() < a.cfg.StarveThreshold
	almost := q.available() < a.cfg.StarveThreshold+1
	if starved != q.starved {
		q.starved = starved
		var group []int
		if q.group != nil {
			group = q.group.starved
		}
		a.bumpNeededCounts(a.starvedInterest, group, q, flipDelta(starved))
		a.refreshDemand(q)
	}
	if almost != q.almostStarved {
		q.almostStarved = almost
		var group []int
		if q.group != nil {
			group = q.group.almost
		}
		a.bumpNeededCounts(a.almostInterest, group, q, flipDelta(almost))
	}
	// Re-derive loadCands membership: starved with at least one needed
	// chunk not fully resident. A starved query whose whole remainder is
	// already buffered (the end-of-scan state most streams idle in at high
	// concurrency) has nothing loadable, so the loader never needs to see
	// it.
	if member := starved && q.neededCount > q.available(); member != (q.loadPos >= 0) {
		if member {
			a.addLoadCand(q)
		} else {
			a.loadCands.remove(q)
		}
	}
}

// addLoadCand keys q at the current scale and pushes it onto loadCands.
func (a *ABM) addLoadCand(q *Query) {
	q.candKey = a.candKeyOf(q)
	a.loadCands.push(q)
}

// candKeyOf maps queryRelevance to a time-free min-heap key: multiplying
// the relevance by the positive constant chunkCost×len(queries) and
// dropping the clock term (identical across candidates at any instant)
// turns "highest relevance, lowest seq" into "lowest remaining×cost×n +
// lastService, lowest seq". The key changes only when the query's remaining
// count or service stamp does — re-keyed at those events — plus a global
// rebuild when len(queries) or chunkCost shifts (candDirty).
func (a *ABM) candKeyOf(q *Query) float64 {
	var k float64
	if !a.cfg.NoShortQueryPriority {
		k += float64(q.remaining()) * a.chunkCost * float64(len(a.queries)) / q.weight
	}
	if !a.cfg.NoWaitPromotion {
		k += q.lastService
	}
	return k
}

// candOrder is the candidate-heap order: lowest key first (highest
// relevance), registration sequence breaking exact ties — the order a
// stable sort of the registry by queryRelevance would produce.
type candOrder struct{}

func (candOrder) before(x, y *Query) bool {
	if x.candKey != y.candKey {
		return x.candKey < y.candKey
	}
	return x.seq < y.seq
}

func (candOrder) slot(q *Query) *int { return &q.loadPos }

// candFix re-sites q after its key inputs (remaining, lastService) changed.
func (a *ABM) candFix(q *Query) {
	if q.loadPos >= 0 {
		q.candKey = a.candKeyOf(q)
		a.loadCands.fix(q)
	}
}

// candRebuild re-keys every candidate and restores the heap order; called
// lazily by nextLoad after the key scale shifted (registry size or chunk
// cost) — once per shift, not per decision.
func (a *ABM) candRebuild() {
	for _, q := range a.loadCands.items {
		q.candKey = a.candKeyOf(q)
	}
	a.loadCands.init()
	a.candDirty = false
}

// refreshDemand recomputes q's term of the maintained DemandBytes sum
// (remaining × per-chunk footprint, doubled while starved) and folds the
// delta into the ABM total. Called at registration, consumption and
// starvation flips — the only events that move the term.
func (a *ABM) refreshDemand(q *Query) {
	contrib := int64(float64(q.remaining()) * q.chunkBytesAvg)
	if q.starved {
		contrib *= 2
	}
	a.demandBytes += contrib - q.demandContrib
	q.demandContrib = contrib
}

// markVicDirty flags chunk c for re-keying in the incremental victim heap
// (no-op unless the ABM maintains one: the relevance policy). O(1); the heap
// re-keys the chunk's resident parts at the next eviction round.
func (a *ABM) markVicDirty(c int) {
	if a.vicDirty == nil || a.vicDirty[c] {
		return
	}
	a.vicDirty[c] = true
	a.vicDirtyList = append(a.vicDirtyList, c)
}

func flipDelta(on bool) int {
	if on {
		return 1
	}
	return -1
}

// bumpNeededCounts adds delta to counts[c] (and groupCounts[c], when
// non-nil) for every chunk q still needs, walking only the query's own
// range span. The touched chunks are marked for victim-heap re-keying:
// starved/almost interest flips move their keepRelevance scores.
func (a *ABM) bumpNeededCounts(counts, groupCounts []int, q *Query, delta int) {
	lo, hi := q.Ranges.Min(), q.Ranges.Max()
	for c := lo; c <= hi; c++ {
		if q.needed[c] {
			counts[c] += delta
			if groupCounts != nil {
				groupCounts[c] += delta
			}
			a.markVicDirty(c)
		}
	}
}

// gainAvailability records that chunk c became fully resident for q; the
// per-stream waker (live engine) fires on every gain.
func (a *ABM) gainAvailability(q *Query, c int) {
	if !q.avail.push(c) {
		return
	}
	a.updateStarveFlags(q)
	if q.waker != nil {
		q.waker()
	}
}

// loseAvailability records that chunk c is no longer both needed by q and
// fully resident (consumed, or a required part is about to be evicted).
func (a *ABM) loseAvailability(q *Query, c int) {
	if q.avail.remove(c) {
		a.updateStarveFlags(q)
	}
}

// partBecameResident propagates one part load into the per-query
// availability state: a query gains the chunk iff it needs it, reads the
// loaded column, and the chunk is now fully resident for its column set.
// Only the chunk's inverted index is walked — membership there already
// implies the query needs the chunk — so a part event costs O(interested
// queries), not O(registered queries). The visit order differs from the
// registry order the code historically walked, but every per-query effect
// here is independent of the others and the shared counters commute, so
// decisions are unchanged (the loadCands order this can permute is ranked
// under a strict total order downstream).
func (a *ABM) partBecameResident(k partKey) {
	bit := colBit(k.col)
	res := a.cache.residentCols[k.chunk]
	for _, q := range a.chunkQueries[k.chunk] {
		req := a.cache.requiredBits(a.queryCols(q))
		if req&bit != 0 && req&^res == 0 {
			a.gainAvailability(q, k.chunk)
		}
	}
}

// partLeavingResidency is partBecameResident's inverse, called while the
// part's residency bit is still set (just before eviction).
func (a *ABM) partLeavingResidency(k partKey) {
	bit := colBit(k.col)
	res := a.cache.residentCols[k.chunk]
	for _, q := range a.chunkQueries[k.chunk] {
		req := a.cache.requiredBits(a.queryCols(q))
		if req&bit != 0 && req&^res == 0 {
			a.loseAvailability(q, k.chunk)
		}
	}
}

// evictPart evicts one part, keeping the availability state consistent.
func (a *ABM) evictPart(k partKey) {
	a.partLeavingResidency(k)
	p := a.cache.parts[k]
	if a.relev != nil {
		a.markVicDirty(k.chunk)
		a.relev.victims.remove(p)
	}
	a.cache.evict(k)
	a.stats.Evictions++
	if a.onEvict != nil {
		a.onEvict(k.chunk, k.col, p.frame)
	}
}

// vicAdd enrols a freshly loaded part in the incremental victim heap
// (no-op unless the ABM maintains one).
func (a *ABM) vicAdd(k partKey) {
	if a.relev == nil {
		return
	}
	a.markVicDirty(k.chunk)
	a.relev.victims.push(a.cache.parts[k])
}

// interested counts registered queries that still need chunk c; with a
// non-zero overlap set, only queries whose columns overlap it count (the
// DSM notion of an interested overlapping query) — a group-counter read,
// not a query scan.
func (a *ABM) interested(c int, overlap storage.ColSet) int {
	if overlap == 0 || !a.layout.Columnar() {
		return a.interestCount[c]
	}
	return a.interestedOverlap(c, overlap)
}

// beginPart transitions one absent part to loading: its buffer space is
// reserved and each contiguous cold run — one I/O request — is charged to
// the system counters and to query attr (may be nil). It returns the runs
// to read. finishPart lands the part: resident, visible to the interested
// queries' availability state and enrolled as an eviction candidate. Every
// load, simulated or live, goes through this pair, so the I/O accounting
// exists once.
func (a *ABM) beginPart(k partKey, attr *Query) []storage.Extent {
	runs := a.cache.coldRuns(k)
	for _, r := range runs {
		a.stats.IORequests++
		a.stats.BytesRead += r.Size
		if attr != nil {
			attr.ios++
			attr.bytesRead += r.Size
		}
	}
	a.cache.beginLoad(k, a.clock.Now())
	return runs
}

func (a *ABM) finishPart(k partKey) {
	a.cache.finishLoad(k, a.clock.Now())
	a.partBecameResident(k)
	a.vicAdd(k)
	a.stats.Loads++
}

// loadParts is the simulator's "do the read and land it": it loads the
// absent parts of chunk c for cols one at a time, smallest first (the
// paper's DSM column load order), charging disk time to process p, and
// broadcasts after each part so queries needing few columns wake early.
// The caller must have ensured buffer space.
func (a *ABM) loadParts(p *sim.Proc, c int, cols storage.ColSet, attr *Query) {
	var kb [storage.MaxColumns]partKey
	keys := a.cache.partsInto(kb[:0], cols, c)
	sortPartsBySize(a.cache, keys)
	tag := "abm"
	if attr != nil {
		tag = attr.Name
	}
	for _, k := range keys {
		if a.cache.state(k) != partAbsent {
			continue
		}
		for _, r := range a.beginPart(k, attr) {
			a.disk.Read(p, r.Pos, r.Size, c, tag)
		}
		a.finishPart(k)
		a.broadcast()
	}
}

// loader is the central ABM loader process of the elevator and relevance
// policies (Figure 3 main()): decide, make room, commit, load, signal. It
// shares the deciding half with the live engine's IssueLoad; the rest
// differs from a ticket in ways the decision golden pins. Parts land one at
// a time through loadParts, where a ticket lands all of its parts at once.
// The eviction pass runs whenever the pool is short of the cold bytes —
// also for a zero-byte load over a pool a boundary page has overcommitted,
// which IssueLoad lets through — and without the §6.2 sibling marks. The
// one-tick yield after the load, which lets the signalled queries pin the
// chunk before the next round's eviction pass, stands in for the
// fresh-load guard Load.Finish sets.
func (a *ABM) loader(p *sim.Proc) {
	for !a.closed {
		d, need, ok := a.proposeLoad(nil)
		if !ok || (a.cache.free() < need && !a.strat.EnsureSpace(need, d.Query)) {
			// blockForNextQuery: nothing loadable, or no room until a
			// query releases a chunk.
			a.activity.Wait(p)
			continue
		}
		a.strat.commitLoad(d)
		a.loadParts(p, d.Chunk, d.Cols, d.Query)
		p.Wait(0)
	}
}

// awaitAvailable is the CScan side of the central-loader policies
// (selectChunk of Figure 3): deliver what the policy picks, pinned, or
// block until the loader's next broadcast — every registration, release
// and load completion sends one.
func (a *ABM) awaitAvailable(p *sim.Proc, q *Query) (int, bool) {
	for {
		if q.finished() {
			return 0, false
		}
		if c := a.strat.PickAvailable(q); c >= 0 {
			a.Pin(q, c, nil)
			return c, true
		}
		q.SetBlocked(true)
		a.activity.Wait(p)
		q.SetBlocked(false)
	}
}

// coldBytesFor returns the cold bytes required to make chunk c resident
// for cols. Absent parts are found with one bit test; only they pay the
// page-map walk.
func (a *ABM) coldBytesFor(c int, cols storage.ColSet) int64 {
	absent := a.cache.absentBits(cols, c)
	if absent == 0 {
		return 0
	}
	if !a.layout.Columnar() {
		return a.cache.coldBytes(partKey{chunk: c, col: -1})
	}
	var n int64
	absent.Each(func(col int) {
		n += a.cache.coldBytes(partKey{chunk: c, col: col})
	})
	return n
}

// evictable reports whether a part may be evicted right now.
func evictable(p *part) bool { return p.state == partLoaded && p.pins == 0 }

// blockedFromEviction reports the policy-independent victim exclusions:
// pinned or still-loading parts, parts of a chunk under assembly, and
// live-engine loads no query has pinned yet.
func (a *ABM) blockedFromEviction(p *part) bool {
	return !evictable(p) || a.assemblingPart(p.key) || a.freshUnpinned(p.key.chunk)
}

// assembly is one gatherer's claim on a chunk: the columns it is making
// resident (zero for the single part of a row-wise chunk).
type assembly struct {
	chunk int
	cols  storage.ColSet
}

// markAssembling protects the parts of (chunk, cols) from eviction while
// they are gathered into a complete chunk — the paper's §6.2 rule that "the
// already-loaded part of the chunk is marked as used, which prohibits its
// eviction"; unmarkAssembling releases one such claim.
func (a *ABM) markAssembling(c int, cols storage.ColSet) {
	a.assembling = append(a.assembling, assembly{chunk: c, cols: a.colsOrNSM(cols)})
}

func (a *ABM) unmarkAssembling(c int, cols storage.ColSet) {
	m := assembly{chunk: c, cols: a.colsOrNSM(cols)}
	for i, o := range a.assembling {
		if o == m {
			last := len(a.assembling) - 1
			a.assembling[i] = a.assembling[last]
			a.assembling = a.assembling[:last]
			return
		}
	}
}

// assemblingPart reports whether some gatherer claims the part. The walk is
// over the gatherers — the loads in flight, or the scans mid-load — not the
// parts, and is empty-handed under the simulator's central-loader policies.
func (a *ABM) assemblingPart(k partKey) bool {
	for _, m := range a.assembling {
		if m.chunk == k.chunk && (k.col < 0 || m.cols.Has(k.col)) {
			return true
		}
	}
	return false
}

// makeSpace evicts parts in LRU order until free() >= need, skipping parts
// that fail the optional keep predicate. Victims come off the cache's
// incrementally maintained recency heap in O(log n) per eviction — the old
// implementation rescanned every loaded part per victim. Skipped parts
// (pinned, assembling, fresh, kept) are set aside and pushed back when the
// pass ends; every predicate is stable for the duration of a pass, so the
// pop order visits exactly the candidates the linear scan minimised over,
// in the same (lastTouch, chunk, col) order. It returns false if it cannot
// reach the target.
func (a *ABM) makeSpace(need int64, keep func(*part) bool) bool {
	aside := a.evictAside[:0]
	ok := true
	for a.cache.free() < need {
		p, found := a.cache.lru.pop()
		if !found {
			ok = false
			break
		}
		if a.blockedFromEviction(p) || (keep != nil && keep(p)) {
			aside = append(aside, p)
			continue
		}
		a.evictPart(p.key)
	}
	for _, p := range aside {
		a.cache.lru.push(p)
	}
	a.evictAside = aside[:0]
	return ok
}

// freshUnpinned reports whether the chunk is a live-engine load no query
// has pinned yet while some registered query can still pick it: the guard
// holds a chunk for the queries its landing woke, so it lapses when they
// are gone — and when the chunk is complete for none of them, because a
// sibling ticket that was to supply the other columns aborted or the query
// the load was for has left. Nobody can pin such a chunk, so a guard that
// only a pin lifts would shield its parts from every eviction pass, last
// resort included, and with them the room the completing load needs. Always
// false in sim mode, where fresh stays empty.
func (a *ABM) freshUnpinned(c int) bool {
	return len(a.fresh) > 0 && a.fresh[c] && a.pickable(c)
}

// pickable reports whether chunk c is resident in every column of some
// registered query that still needs it.
func (a *ABM) pickable(c int) bool {
	if a.groupIdx == nil { // NSM: one part serves every query
		return a.interestCount[c] > 0 && a.cache.chunkLoadedFor(0, c)
	}
	for _, g := range a.groups {
		if g.interested[c] > 0 && a.cache.chunkLoadedFor(g.cols, c) {
			return true
		}
	}
	return false
}

func sortPartsBySize(b *bufcache, keys []partKey) {
	// Insertion sort: key counts are tiny (≤ number of columns).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			si, sj := b.extentOf(keys[j]).Size, b.extentOf(keys[j-1]).Size
			if si < sj || (si == sj && keys[j].col < keys[j-1].col) {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			} else {
				break
			}
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

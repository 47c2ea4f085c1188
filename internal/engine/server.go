package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// ErrClosed is returned by Scan when the engine shuts down mid-scan, and
// immediately by a Scan entered after Close.
var ErrClosed = errors.New("engine: closed")

// ErrChunkUnavailable is returned by Scan/ScanWith when a part the scan
// still needs was quarantined: a load of it exhausted its retries against a
// persistent fault. Only scans whose remaining range and column set touch
// the quarantined part fail; sibling queries, other chunks and other tables
// keep running. The error chain includes the final load failure (e.g.
// ErrChecksum or the device error), so errors.Is can classify the cause.
var ErrChunkUnavailable = errors.New("engine: chunk unavailable")

// Scan argument validation errors; test with errors.Is. A scan that names a
// table the server does not serve, a range beyond the table, or a column
// set the table does not store is rejected up front with one of these — it
// never registers with an ABM, so it cannot wedge the scheduler or silently
// scan nothing.
var (
	// ErrUnknownTable: the table index is not served by this server.
	ErrUnknownTable = errors.New("engine: unknown table")
	// ErrInvalidRange: the range set is empty or extends beyond the table.
	ErrInvalidRange = errors.New("engine: invalid scan range")
	// ErrInvalidColumns: the column set is empty or names columns the table
	// does not store.
	ErrInvalidColumns = errors.New("engine: invalid column set")
	// ErrInvalidWeight: the scan's SLO weight is negative.
	ErrInvalidWeight = errors.New("engine: invalid scan weight")
)

// Runtime attach/detach errors; test with errors.Is.
var (
	// ErrTableDetached: the scan names a table that was detached from the
	// running server, or the table was detaching while the scan ran.
	ErrTableDetached = errors.New("engine: table detached")
	// ErrTableExists: Attach under a name already serving a live table (or
	// one still draining out of a DetachTable in progress).
	ErrTableExists = errors.New("engine: table already attached")
	// ErrAttachIncompatible: the table cannot run under this server — it was
	// given an empty name, or the buffer budget cannot cover the two-chunk
	// floor of every attached table plus this one.
	ErrAttachIncompatible = errors.New("engine: table incompatible with server")
)

// ServerConfig parameterises a multi-table live server.
type ServerConfig struct {
	// Policy is the scheduling policy every table's ABM runs (all four of
	// the paper's policies work; they share the core.SchedulerPolicy
	// decision core with the simulator).
	Policy core.Policy
	// BufferBytes is the *shared* buffer budget across all tables. The
	// budget arbiter (core.Manager.Rebalance) re-divides it between the
	// per-table ABMs as demand shifts; it must cover at least two chunks
	// of every attached table.
	BufferBytes int64
	// InFlightDepth bounds the number of chunk loads the scheduler may
	// have outstanding at once, across all tables. Depth 1 reproduces the
	// original one-read-at-a-time loop; the default is 4, so the device
	// sees overlapping requests even when a single stream cannot saturate
	// it.
	InFlightDepth int
	// MeasureScheduling forwards to core.Config: every table's ABM then
	// meters the wall-clock cost of its scheduling decisions (the load
	// decision, EnsureSpace, PickAvailable), surfaced per table in
	// ServerStats — the live-engine counterpart of the simulator's Figure-8
	// measurement.
	MeasureScheduling bool
	// ReadBandwidth, when positive, models the device: each in-flight load
	// stream is limited to this many bytes per second (the worker sleeps
	// off the residual after the real read), so the aggregate device
	// bandwidth scales with InFlightDepth up to depth × ReadBandwidth —
	// the "one stream cannot saturate the device" regime of real RAIDs
	// and SSDs. Zero disables the model: loads run at page-cache/disk
	// speed, under which buffer-cached files make every policy look alike
	// because re-reads cost nothing. Benchmarks set it to the simulator's
	// ~200 MiB/s RAID figure so live numbers are comparable to the
	// paper's.
	ReadBandwidth int64
	// LoadRetries caps how many times a failed load's reads are
	// retried before the parts it covers are quarantined (default 4, so a
	// load gets 5 attempts in total — enough to outlast any transient fault
	// an injector caps at 2 failures per offset).
	LoadRetries int
	// RetryBackoff is the base of the exponential retry backoff (default
	// 1ms): attempt k sleeps base × 2^k, jittered to [50%, 150%), capped at
	// 100 × base. Tests shrink it to keep fault soaks fast.
	RetryBackoff time.Duration
	// Obs, when non-nil, is the metrics registry the server instruments
	// itself into: scheduler decision latency, load read/verify/commit latency
	// and bytes, in-flight depth, fault counters, per-scan wall latency,
	// resident and pinned parts and the arbiter's grants. One registry may
	// serve several sequential servers (counters accumulate, Prometheus
	// style). Nil disables metrics at nil-check cost.
	Obs *obs.Registry
	// Trace, when non-nil, receives the scan-timeline trace: one track per
	// query stream, per-table load-pipeline lanes, and instant events for
	// scheduler decisions, evictions, rebalances and quarantines. The caller
	// owns the tracer (and its Close). Nil disables tracing.
	Trace *obs.Tracer
}

const (
	defaultInFlightDepth = 4
	defaultLoadRetries   = 4
	defaultRetryBackoff  = time.Millisecond
)

// TableStats is one table's share of a server's counters.
type TableStats struct {
	Name string
	// ABM holds the table's chunk-level decision counters.
	ABM core.SystemStats
	// BudgetBytes is the table's current arbiter grant.
	BudgetBytes int64
	// SchedNanos/SchedCalls meter the table's scheduling decisions (zero
	// unless ServerConfig.MeasureScheduling).
	SchedNanos int64
	SchedCalls int64
	// DiskBytesRead is the stored bytes load workers transferred for this
	// table: compressed widths on v4 files, so it diverges from
	// ABM.BytesRead (which accounts the decoded frame footprint)
	// exactly by the compression ratio.
	DiskBytesRead int64
	// ChunksPruned counts chunks removed from scan registrations by
	// zonemap pruning — work the scheduler never saw.
	ChunksPruned int64
	// ReceiptCRCsComputed and ReceiptCRCsReused count ChunkData.ColCRC
	// calls: per-column sums hashed from a part's bytes, and sums read back
	// from the memo an earlier scan left on the resident part — CPU work
	// shared between consumers the way Pool.Hits ÷ Pool.Misses is I/O shared.
	ReceiptCRCsComputed int64
	ReceiptCRCsReused   int64
	// KernelChunks* count the delivered chunks Q6Chunk/Q1Chunk were handed by
	// what their persisted bounds decided first: no row can qualify (nothing
	// read), every row passes Q6's date conjunct (its pass skipped), nothing.
	KernelChunksNone    int64
	KernelChunksDateAll int64
	KernelChunksSome    int64
}

// FaultStats counts the server's fault-handling activity. All fields are
// cumulative since server start.
type FaultStats struct {
	// Retries is the number of load attempts repeated after a read or
	// verify failure.
	Retries int64
	// ChecksumErrors counts load attempts rejected by page checksum
	// verification (ErrChecksum somewhere in the failure chain).
	ChecksumErrors int64
	// QuarantinedParts counts (chunk, column) parts taken out of service
	// after a load exhausted its retries.
	QuarantinedParts int64
	// FailedScans counts scans that returned ErrChunkUnavailable because
	// their range needed a quarantined part.
	FailedScans int64
	// CancelledScans counts scans that returned early because their context
	// was cancelled or timed out.
	CancelledScans int64
}

// PoolStats counts the buffer's activity in parts (NSM chunks, DSM column
// stripes) — the unit the ABM loads, pins and evicts, each resident part
// holding one frame. Hits ÷ Misses is the sharing fan-out: deliveries per
// load.
type PoolStats struct {
	// Hits counts parts handed to scans from resident frames.
	Hits int
	// Misses counts parts landed by loads; BytesLoaded sums their decoded
	// sizes.
	Misses int
	// Evictions counts parts the ABM evicted.
	Evictions   int
	BytesLoaded int64
	// Resident and Pinned are instantaneous: parts resident, and resident
	// parts some scan is processing right now.
	Resident int
	Pinned   int
}

// ServerStats aggregates a run's counters: per-table ABM decisions plus the
// buffer's part traffic and the fault-handling counters.
type ServerStats struct {
	Tables []TableStats
	Pool   PoolStats
	Faults FaultStats
}

// partID names one part of a table: a (chunk, column) part in DSM, the whole
// chunk (col == -1) in NSM — the ABM's part keys.
type partID struct{ chunk, col int }

// serverTable is one attached table: its file and its live ABM (own part
// table, query registry and policy state, per the paper's §7.1 "separate
// statistics and meta-data for each" table). The ABM's part records hold the
// resident parts' frames — one per NSM chunk, one per DSM (chunk, column)
// part, so a column part can be evicted while a sibling column stays; its
// query registry is the table's stream registry (a query's waker signals its
// stream) and its open-ticket count the table's loads in flight.
type serverTable struct {
	idx  int
	tf   *TableFile
	abm  *core.ABM
	name string
	// mu guards the table's runtime state: the ABM (parts with their pins
	// and frames, the query registry, the admission queue, wakers, open
	// tickets, policy heaps, SystemStats), framesOut, quarantine, the
	// trace-lane free list and detaching/detached. Its streams and the
	// workers landing its loads take this lock and no other.
	mu sync.Mutex
	// framesOut counts the frames this table has drawn and not returned: the
	// ones its resident parts carry plus those travelling on in-flight load
	// jobs. Guarded by mu.
	framesOut int
	// quarantine holds the parts whose loads exhausted their retries,
	// mapped to the final failure. The scheduler refuses decisions naming
	// them and scans that still need them fail with ErrChunkUnavailable;
	// everything else proceeds. Guarded by mu.
	quarantine map[partID]error
	// o holds the table's pre-resolved metric series and trace-lane
	// freelist (see internal/engine/obs.go); zero when observability is off.
	o tableObs
	// diskRead accumulates the stored bytes load workers transferred for
	// this table (compressed widths on v4 files); pruned counts the chunks
	// zonemap pruning removed from scan registrations. Both are atomic,
	// bumped without a lock (workers and the pre-registration scan path).
	diskRead atomic.Int64
	pruned   tally
	// receipts meters the table's ColCRC calls, kernels its Q6Chunk/Q1Chunk
	// calls by what the chunk's bounds decided (storage.Decided); scans bump
	// both from their callbacks, without a lock.
	receipts receiptMeter
	kernels  [3]tally
	// detaching is set by DetachTable: the scheduler stops admitting and
	// issuing the table's scans and loads, and every queued, parked or later
	// scan of it fails with ErrTableDetached. detached is
	// set when the scheduler finalises the quiesced table (frames returned,
	// quarantine cleared, grant returned to the arbiter, ABM shut down);
	// the slot then stays behind as a tombstone — table indexes are stable
	// for the server's lifetime. Both are written under Server.mu and mu
	// together, so either lock reads them.
	detaching, detached bool
}

// partBytes returns the decoded size of one part — its frame size and the
// bytes its ABM reservation holds.
func (t *serverTable) partBytes(col int) int64 {
	if col < 0 {
		return t.tf.ChunkBytes()
	}
	return t.tf.ColStripeBytes(col)
}

// eachPart invokes fn for every ABM part a load decision covers: the single
// pseudo-column part in NSM, one part per column in DSM.
func (t *serverTable) eachPart(cols storage.ColSet, fn func(col int)) {
	if t.tf.Format() == NSM {
		fn(-1)
		return
	}
	cols.Each(fn)
}

// loadable is the scheduler's veto over load proposals: one naming a
// quarantined part is never committed. The table then stays parked until
// the affected scans observe the quarantine (they are woken when it is
// imposed), fail, and unregister; the policy's next proposal no longer
// wants the dead part.
func (t *serverTable) loadable(d core.LoadDecision) bool {
	ok := true
	if len(t.quarantine) > 0 {
		t.eachPart(d.Cols, func(col int) {
			if _, bad := t.quarantine[partID{chunk: d.Chunk, col: col}]; bad {
				ok = false
			}
		})
	}
	return ok
}

// loadJob is one issued load travelling from the scheduler to a worker: the
// ticket says the decision is committed and its buffer space reserved, and
// one frame is drawn per part it covers, so the worker only performs the
// file reads and lands the ticket. The ticket names exactly the parts this
// load transitioned to loading, so an overlapping in-flight load of a
// sibling column is never committed early.
type loadJob struct {
	t  *serverTable
	ld *core.Load
	// parts are the job's frames, one per ticket part in the ticket's column
	// order. They stay on the job across retries — a part already read keeps
	// its bytes, only failed parts are re-read — until the load lands them on
	// the ABM's parts or aborts and returns them.
	parts []loadPart
	// lane is the job's load-pipeline trace track (zero, and thus no-op,
	// when tracing is off); issuedAt timestamps the issue for the queued
	// span and is set only when observability is enabled.
	lane     obs.Track
	issuedAt time.Time
}

// loadPart is one part of a load job: its column (-1 for an NSM chunk), its
// frame, and whether the frame already holds the part's verified bytes.
type loadPart struct {
	col  int
	f    *frame
	read bool
}

// wallClock is the live ABM clock: seconds since server start.
type wallClock struct{ start time.Time }

func (w wallClock) Now() float64 { return time.Since(w.start).Seconds() }

// Server executes cooperative scans over multiple table files in wall-clock
// time, under one shared buffer budget — the multi-table runtime the
// paper's §7.1 asks of "a production-quality implementation".
//
// Concurrency model: one goroutine per Scan call (the query streams), one
// scheduler goroutine that owns every load and eviction *decision* across
// all tables, and InFlightDepth worker goroutines that execute the issued
// loads' file reads. The scheduler round-robins core.ABM.IssueLoad over the
// per-table ABMs and keeps up to InFlightDepth loads outstanding; each
// ticket reserves its buffer space up front, so the decision state stays
// coherent while several reads are in flight, and completions commit
// (Load.Finish, which hands the parts their frames) in whatever order the
// reads land. A freshly landed chunk is eviction-protected until first
// pinned, per load — the same rule the single-load engine enforced, now held
// for every member of the in-flight set.
//
// Tables are NSM or DSM per file. On an NSM table a load is the whole
// chunk; on a DSM table a load is the per-column extents of the decision's
// column set (the relevance policy loads the union of the overlapping
// starved queries' columns, Figure 11), each extent read with one
// positioned read into its own frame — so queries pay only for the columns
// they project, and eviction retires column parts independently.
//
// The ABMs are the only residency and eviction authority: a resident part
// carries one frame of its decoded size (see frame), drawn from the frame
// allocator after the load ticket reserved its bytes, handed to the part when
// the ticket lands, to every scan that pins it, and to the evict hook that
// returns it — so the bytes held in frames are the bytes the ABMs account.
//
// Locks: each table's mu guards that table's ABM and runtime state, Server.mu
// only the cross-table state, and the frame allocator has its own. The order
// is Server.mu → table locks in slot order → frame allocator; streams and
// workers take their own table's lock alone. Workers drop it for the real
// file reads and streams while processing delivered chunks, so decision
// making, I/O depth and query CPU all overlap, and tables never wait on each
// other.
//
// A stream joins through its table's admission queue: it enqueues its query
// and the scheduler admits every live table's queue once per pass — its call
// of core.ABM.AdmitQueued is the only one — so a query enqueued during pass
// k is registered and pickable at pass k+1. That is the engine's fairness
// valve: a burst of arrivals joins as one batch, under one arbiter run,
// behind the streams already delivering.
//
// The budget arbiter (core.Manager) runs inside the scheduler loop:
// whenever demand shifts (DemandShifted) it re-divides the budget by
// demand, but never grants a table less than it currently uses, so every
// table's frames stay within its grant (AuditTables checks it).
type Server struct {
	cfg ServerConfig

	// mu guards the cross-table state: slot and name registration, the
	// budget arbiter (mgr), attach/detach and detachCond. No stream or worker
	// takes it.
	mu sync.Mutex
	// kick wakes the scheduler goroutine, its only reader. Every wake site
	// does a non-blocking send into the one slot, so wake-ups coalesce and
	// none is lost: a send during a pass leaves the token for the next park.
	// Sites: an arrival, the blocked flag, a departure, a freed in-flight
	// slot, attach/detach, and every pin.
	// Query streams park on their own per-stream conds and are woken
	// individually through their queries' wakers: by the ABM on admission
	// and on an availability gain, and by ABM.WakeQueries on a quarantine, a
	// detach or shutdown.
	kick chan struct{}
	mgr  *core.Manager
	// tables is the slot snapshot, replaced copy-on-write by admit under mu
	// and read with no lock, so a scan takes no server-wide lock.
	tables atomic.Pointer[[]*serverTable]
	// names maps each live table's registration name to its slot in
	// tables. DetachTable removes the name as soon as the detach begins;
	// detached slots stay in tables as tombstones but are unreachable by
	// name, so a detached name can be reattached (to a fresh slot) once
	// its drain completes. Guarded by mu.
	names map[string]int
	// detachCond wakes DetachTable callers when the scheduler finalises a
	// quiesced detach, and on shutdown so no caller waits on a dead
	// scheduler.
	detachCond *sync.Cond
	// frames is the frame allocator every table's loads draw from.
	frames *frameAlloc
	// rr rotates the scheduler's table scan so no table monopolises the
	// load queue; the scheduler goroutine alone touches it.
	rr int
	// inFlight counts issued-but-unlanded loads; bounded by
	// cfg.InFlightDepth. Only the scheduler adds to it.
	inFlight atomic.Int64

	closed atomic.Bool

	// start anchors wall-clock uptime (and the ABM clock's zero).
	start time.Time
	// o holds the server's metric handles and tracer (nil-safe throughout;
	// see internal/engine/obs.go).
	o *serverObs

	loadCh    chan loadJob
	schedDone chan struct{}
	workerWG  sync.WaitGroup
	closeOnce sync.Once

	// loadHook, when set (tests only), runs in a worker goroutine between
	// the unlocked read and the locked completion of every load — the seam
	// used to force loads to complete out of issue order.
	loadHook func(table, chunk int)
}

// NewServer creates a server over the given table files and starts its
// scheduler and load workers. Close must be called to stop them. The table
// files are adopted in the given order (their index is the Scan table
// argument) but remain owned by the caller. NSM and DSM tables mix freely
// under the one shared budget. Each table is admitted as Attach admits one,
// so a budget below two chunks per table is ErrAttachIncompatible.
func NewServer(cfg ServerConfig, tfs ...*TableFile) (*Server, error) {
	if len(tfs) == 0 {
		return nil, errors.New("engine: NewServer with no tables")
	}
	if cfg.InFlightDepth <= 0 {
		cfg.InFlightDepth = defaultInFlightDepth
	}
	if cfg.LoadRetries <= 0 {
		cfg.LoadRetries = defaultLoadRetries
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	s := &Server{
		cfg:       cfg,
		kick:      make(chan struct{}, 1),
		names:     make(map[string]int),
		frames:    newFrameAlloc(cfg.Obs),
		loadCh:    make(chan loadJob, cfg.InFlightDepth),
		schedDone: make(chan struct{}),
		start:     time.Now(),
	}
	s.tables.Store(&[]*serverTable{})
	s.detachCond = sync.NewCond(&s.mu)
	s.o = newServerObs(cfg.Obs, cfg.Trace)
	s.mgr = core.NewLiveManager(wallClock{start: s.start}, core.Config{
		Policy:            cfg.Policy,
		MeasureScheduling: cfg.MeasureScheduling,
	})
	s.mgr.SetMetrics(managerMetrics(cfg.Obs))
	for i, tf := range tfs {
		if _, err := s.admit(fmt.Sprintf("%s#%d", tf.Layout().Table().Name, i), tf); err != nil {
			return nil, err
		}
	}
	s.rebalance()
	for i := 0; i < cfg.InFlightDepth; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	go s.scheduler()
	return s, nil
}

// admit is the admission step NewServer and Attach share: it refuses an
// empty or taken name (ErrAttachIncompatible, ErrTableExists) and a table
// the budget cannot cover at the two-chunk floor of every live table plus
// its own (ErrAttachIncompatible); otherwise it builds the table's runtime
// state in the next slot and registers its ABM with the budget arbiter at
// the floor, publishing the new slot snapshot. The caller runs the arbiter,
// which grants the rest of the budget by demand. Callers hold Server.mu, or
// are NewServer.
func (s *Server) admit(name string, tf *TableFile) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("%w: empty table name", ErrAttachIncompatible)
	}
	if _, ok := s.names[name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	if _, draining := s.mgr.For(name); draining {
		return 0, fmt.Errorf("%w: %q is still draining", ErrTableExists, name)
	}
	floor := 2 * tf.ChunkBytes()
	slots := s.slots()
	for _, t := range slots {
		if !t.detached {
			floor += 2 * t.tf.ChunkBytes()
		}
	}
	if s.cfg.BufferBytes < floor {
		return 0, fmt.Errorf("%w: buffer %d bytes < two chunks per table (%d) with %q attached",
			ErrAttachIncompatible, s.cfg.BufferBytes, floor, name)
	}
	t := &serverTable{
		idx: len(slots), tf: tf, name: name,
		quarantine: make(map[partID]error),
	}
	s.frames.retain(partSizes(tf))
	t.abm = s.mgr.AttachAs(name, tf.Layout(), 2*tf.ChunkBytes())
	t.abm.SetEvictHook(func(chunk, col int, f any) {
		// The ABM evicted one part — an NSM chunk (col -1) or a DSM
		// column part: return its frame for the next load of that size.
		// Sibling columns of the same chunk keep theirs. Runs under t.mu,
		// from an EnsureSpace inside the scheduler.
		s.returnFrame(t, f.(*frame))
		s.o.evictions.add(1)
		s.o.resident.add(-1)
		if s.o.tracer != nil {
			s.o.schedTrack.Instant("evict", obs.Args{"table": t.name, "chunk": chunk, "col": col})
		}
	})
	t.o.sched = s.o.schedSeconds.With(name, s.cfg.Policy.String())
	t.o.scan = s.o.scanSeconds.With(name, s.cfg.Policy.String())
	t.o.useful = s.o.usefulBytes.With(name)
	t.pruned.c = s.o.prunedChunks.With(name, s.cfg.Policy.String())
	t.receipts.computed.c = s.o.receiptCRCs.With(name, "computed")
	t.receipts.reused.c = s.o.receiptCRCs.With(name, "reused")
	for decided, label := range [...]string{storage.Some: "some", storage.None: "none", storage.All: "date_all"} {
		t.kernels[decided].c = s.o.kernelChunks.With(name, label)
	}
	next := append(slots[:len(slots):len(slots)], t)
	s.tables.Store(&next)
	s.names[name] = t.idx
	return t.idx, nil
}

// slots returns the current slot snapshot; callers must not modify it.
func (s *Server) slots() []*serverTable { return *s.tables.Load() }

// rebalance runs the budget arbiter holding every attached table's lock, in
// slot order, and returns its grants. Callers hold Server.mu, or are
// NewServer.
func (s *Server) rebalance() []int64 {
	var held []*serverTable
	for _, t := range s.slots() {
		if !t.detached {
			t.mu.Lock()
			held = append(held, t)
		}
	}
	grants := s.mgr.Rebalance(s.cfg.BufferBytes)
	for _, t := range held {
		t.mu.Unlock()
	}
	return grants
}

// wake kicks the scheduler without blocking (see Server.kick).
func (s *Server) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// drawFrame draws the frame for one part of t whose load is being issued;
// returnFrame gives one back (eviction, abort, detach, shutdown). Together
// they keep t.framesOut, the audited count of frames t holds. Callers hold
// t.mu.
func (s *Server) drawFrame(t *serverTable, col int) *frame {
	t.framesOut++
	return s.frames.get(t.partBytes(col))
}

func (s *Server) returnFrame(t *serverTable, f *frame) {
	t.framesOut--
	s.frames.put(f)
}

// releaseFrames takes the frame off every resident part of t and returns it
// — a table being finalised out of a detach, or any table still attached at
// shutdown. A scan still inside a delivery at shutdown keeps its pinned
// frames' bytes alive by reference; no load can draw them again, because the
// scheduler is already gone. Callers hold t.mu.
func (s *Server) releaseFrames(t *serverTable) {
	t.abm.ReleaseFrames(func(f any) {
		s.returnFrame(t, f.(*frame))
		s.o.resident.add(-1)
	})
}

// scheduler is the live ABM decision loop: each pass admits every live
// table's queued scans under that table's lock (the one call of
// core.ABM.AdmitQueued; see Server), finalises quiesced detaches and keeps
// the budget arbiter current under Server.mu, and keeps up to InFlightDepth
// loads issued across the tables, then parks until a kick says a
// completion, release, arrival or departure changed the world.
func (s *Server) scheduler() {
	defer close(s.schedDone)
	for !s.closed.Load() {
		tables := s.slots()
		for _, t := range tables {
			t.mu.Lock()
			if !t.detaching {
				t.abm.AdmitQueued()
			}
			t.mu.Unlock()
		}
		s.mu.Lock()
		s.finalizeDetaches()
		s.maybeRebalance()
		s.mu.Unlock()
		if s.inFlight.Load() < int64(s.cfg.InFlightDepth) && s.issueOne(tables) {
			continue
		}
		<-s.kick
	}
}

// AuditTables cross-checks every table ABM's incrementally maintained
// scheduler structures (counters, demand sums, availability and candidate
// heaps, victim heap) against a linear recomputation from first principles,
// the frames its parts carry against their reservations, and its usage
// against its grant, each table under its own lock. The arbiter never
// grants a table less than it uses, and a load reserves only the bytes its
// eviction pass made room for (no page of a table file is shared between
// parts), so no table is ever over its grant: nothing has to drain an
// excess. It is the soak harness's mid-flight invariant probe; production
// code never calls it.
func (s *Server) AuditTables() error {
	return s.eachTable(func(t *serverTable) error {
		if t.detached {
			return nil
		}
		if free := t.abm.FreeBytes(); free < 0 {
			return fmt.Errorf("engine: table %s over its grant: free = %d", t.name, free)
		}
		if err := t.abm.AuditIncremental(); err != nil {
			return fmt.Errorf("engine: table %s: %w", t.name, err)
		}
		return t.auditFrames(false)
	})
}

// eachTable runs fn on every slot under that table's lock alone, stopping at
// the first error.
func (s *Server) eachTable(fn func(t *serverTable) error) error {
	for _, t := range s.slots() {
		t.mu.Lock()
		err := fn(t)
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// auditFrames checks the one-part-one-frame invariant on the ABM's part
// table: every resident part carries a frame of exactly the bytes its
// reservation accounts, and the frames the table has drawn are exactly those
// plus one per loading part (travelling on its in-flight load job). On a
// released table — detached, or any table once the server has closed — no
// part carries a frame and none is drawn.
func (t *serverTable) auditFrames(released bool) error {
	held, loading := 0, 0
	var err error
	t.abm.EachPart(func(chunk, col int, bytes int64, resident bool, fr any) {
		f, _ := fr.(*frame)
		switch {
		case !resident:
			loading++
		case f == nil:
			if !released {
				err = fmt.Errorf("engine: table %s: resident part (%d,%d) has no frame", t.name, chunk, col)
			}
		case released:
			err = fmt.Errorf("engine: released table %s: part (%d,%d) still carries a frame", t.name, chunk, col)
		case f.bytes() != bytes || bytes != t.partBytes(col):
			err = fmt.Errorf("engine: table %s: part (%d,%d) frame %d bytes, ABM accounts %d, part is %d",
				t.name, chunk, col, f.bytes(), bytes, t.partBytes(col))
		default:
			held++
		}
	})
	if err == nil && t.framesOut != held+loading {
		err = fmt.Errorf("engine: table %s: %d frames outstanding, %d on resident parts + %d loading",
			t.name, t.framesOut, held, loading)
	}
	return err
}

// AuditDrained checks the quiescent-state invariants once every scan has
// returned and no load is in flight: no pins or loading parts left behind,
// no load ticket open, no leaked assembly marks, byte accounting intact, no
// table over its budget, and no frame held by anything but a resident part —
// none stranded on a load job, none on a detached slot, none at all once the
// server has closed. Like AuditTables it exists for the soak harness.
func (s *Server) AuditDrained() error {
	return s.eachTable(func(t *serverTable) error {
		if err := t.auditFrames(t.detached || s.closed.Load()); err != nil || t.detached {
			return err
		}
		if err := t.abm.AuditDrained(); err != nil {
			return fmt.Errorf("engine: table %s: %w", t.name, err)
		}
		if free := t.abm.FreeBytes(); free < 0 {
			return fmt.Errorf("engine: table %s over budget after drain: free = %d", t.name, free)
		}
		return nil
	})
}

// maybeRebalance re-runs the budget arbiter when the tables' demand has
// shifted (core.Manager.DemandShifted owns the rule, and reads no table
// state a lock guards). Runs under Server.mu.
func (s *Server) maybeRebalance() {
	if !s.mgr.DemandShifted() {
		return
	}
	grants := s.rebalance()
	if s.o.tracer != nil {
		s.o.schedTrack.Instant("rebalance", obs.Args{"grants": grants})
	}
}

// issueOne asks the tables round-robin, each under its own lock, for a load
// ticket and hands the first one issued to a worker. A table whose proposal
// names a quarantined part, or whose pool cannot make room, is skipped this
// round; the others still get their turn. It reports whether a load was
// issued.
func (s *Server) issueOne(tables []*serverTable) bool {
	n := len(tables)
	for off := 0; off < n; off++ {
		i := (s.rr + off) % n
		if job, ok := s.issueFrom(tables[i]); ok {
			s.inFlight.Add(1)
			s.o.inflight.Add(1)
			s.rr = (i + 1) % n
			// Never blocks: inFlight < depth == cap(loadCh) and workers drain.
			s.loadCh <- job
			return true
		}
	}
	return false
}

// issueFrom is issueOne's step on one table, under t.mu: the ticket, then
// the frames its reserved bytes pay for.
func (s *Server) issueFrom(t *serverTable) (loadJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.detaching || t.detached {
		return loadJob{}, false
	}
	var decStart time.Time
	if s.o.enabled {
		decStart = time.Now()
	}
	ld := t.abm.IssueLoad(t.loadable)
	if ld == nil {
		return loadJob{}, false
	}
	d := ld.Decision()
	job := loadJob{t: t, ld: ld}
	job.parts = make([]loadPart, 0, max(1, d.Cols.Count()))
	t.eachPart(d.Cols, func(col int) {
		job.parts = append(job.parts, loadPart{col: col, f: s.drawFrame(t, col)})
	})
	if s.o.enabled {
		job.issuedAt = time.Now()
		t.o.sched.Observe(job.issuedAt.Sub(decStart).Seconds())
		if s.o.tracer != nil {
			job.lane = t.acquireLane(s.o.tracer)
			s.o.schedTrack.Instant("load", obs.Args{"table": t.name, "chunk": d.Chunk})
		}
	}
	return job, true
}

// worker executes issued loads: the real file reads happen without a lock,
// straight into the job's frames; then the completion — landing the ticket,
// which hands each part its frame — commits under the job's table lock.
// Completions land in read-completion order, not issue order; the ABM's part
// states (marked loading at issue) keep the two decoupled.
//
// A load is its own fault domain. A failed read or checksum verification
// retries with bounded exponential backoff (the job stays counted in
// inFlight, so the scheduler never over-issues while it heals); a load that
// exhausts its retries — or fails during shutdown — is aborted: its frames
// return to the allocator and its ticket is aborted (the ABM reservation is
// rolled back, so the budget never leaks). Exhausted retries also quarantine
// the failing part; a shutdown cutting the retries short does not — the part
// was never shown to be bad. No load failure takes the server down.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for job := range s.loadCh {
		iost, err := s.readParts(job)
		if job.lane != (obs.Track{}) {
			// Lane spans: queue wait, then the reads with their accumulated
			// verify and decompress time rendered as trailing spans.
			job.lane.SpanAt("queued", job.issuedAt, iost.start, nil)
			vStart := iost.end.Add(-iost.verify - iost.decomp)
			job.lane.SpanAt("read", iost.start, vStart, obs.Args{"bytes": iost.bytes, "disk": iost.diskBytes})
			if iost.decomp > 0 {
				dEnd := vStart.Add(iost.decomp)
				job.lane.SpanAt("decompress", vStart, dEnd, nil)
				job.lane.SpanAt("verify", dEnd, iost.end, nil)
			} else {
				job.lane.SpanAt("verify", vStart, iost.end, nil)
			}
		}
		if s.loadHook != nil {
			s.loadHook(job.t.idx, job.ld.Decision().Chunk)
		}
		exhausted := false
		for attempt := 0; err != nil; attempt++ {
			if errors.Is(err, ErrChecksum) || errors.Is(err, ErrCorrupt) {
				s.o.checksumErrors.add(1)
			}
			exhausted = attempt >= s.cfg.LoadRetries
			if exhausted || s.closed.Load() {
				break
			}
			s.o.retries.add(1)
			time.Sleep(s.retryPause(attempt))
			_, err = s.readParts(job)
		}
		t := job.t
		t.mu.Lock()
		if err == nil {
			s.completeLoad(job)
		} else {
			// Roll the load back: the frames return to the allocator and
			// the ticket un-reserves its bytes; the parts stay loadable.
			for _, p := range job.parts {
				s.returnFrame(t, p.f)
			}
			job.ld.Abort()
			if exhausted {
				s.quarantine(job, err)
			}
		}
		t.releaseLane(job.lane)
		t.mu.Unlock()
		s.inFlight.Add(-1)
		s.o.inflight.Add(-1)
		// A slot freed: only the scheduler cares. Streams interested in the
		// landed chunk were woken by their queries' wakers in Load.Finish.
		s.wake()
	}
}

// completeLoad lands one fully read load under its table's lock: the ticket
// finishes and hands each of its parts the frame the worker filled. Nothing
// here can fail or touch the file — the frames were drawn at issue and filled
// without a lock.
func (s *Server) completeLoad(job loadJob) {
	var commitStart time.Time
	if s.o.enabled {
		commitStart = time.Now()
	}
	var bytes int64
	chunk := job.ld.Decision().Chunk
	frames := make([]any, len(job.parts))
	for i, p := range job.parts {
		frames[i] = p.f
		bytes += p.f.bytes()
	}
	s.o.misses.add(int64(len(job.parts)))
	s.o.loaded.add(bytes)
	s.o.resident.add(int64(len(job.parts)))
	// Finish fires the waker of every query that gained availability, so
	// exactly the interested streams wake; the worker signals the scheduler
	// when it returns the in-flight slot.
	job.ld.Finish(frames...)
	if s.o.enabled {
		now := time.Now()
		s.o.pinSeconds.Observe(now.Sub(commitStart).Seconds())
		if job.lane != (obs.Track{}) {
			job.lane.SpanAt("pin", commitStart, now, obs.Args{"chunk": chunk})
		}
	}
}

// retryPause returns the backoff before retry `attempt`: exponential in the
// configured base, capped at 100×, jittered to [50%, 150%) from the global
// source, so concurrent failed loads do not retry in lockstep.
func (s *Server) retryPause(attempt int) time.Duration {
	d := s.cfg.RetryBackoff
	for i := 0; i < attempt && d < 100*s.cfg.RetryBackoff; i++ {
		d *= 2
	}
	if max := 100 * s.cfg.RetryBackoff; d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// quarantine takes the failing part of a load that exhausted its retries out
// of service, so the scheduler stops re-proposing it and the scans that need
// it fail fast; the table's streams are woken to observe it (other tables'
// streams are unaffected). Called under job.t.mu.
func (s *Server) quarantine(job loadJob, cause error) {
	for _, k := range quarantineTargets(job, cause) {
		if _, dup := job.t.quarantine[k]; !dup {
			job.t.quarantine[k] = cause
			s.o.quarantined.add(1)
			if s.o.tracer != nil {
				s.o.schedTrack.Instant("quarantine", obs.Args{"table": job.t.name, "chunk": k.chunk, "col": k.col})
			}
		}
	}
	job.t.abm.WakeQueries()
}

// quarantineTargets picks the parts to quarantine for a dead load: the
// exact part of the failing page when the error chain carries one (reads
// and checksum verification tag failures with *PageError), else — for
// errors with no page attribution — every part the job covered.
func quarantineTargets(job loadJob, cause error) []partID {
	var pe *PageError
	if errors.As(cause, &pe) {
		chunk, col := job.t.tf.PagePart(pe.Page)
		return []partID{{chunk: chunk, col: col}}
	}
	chunk := job.ld.Decision().Chunk
	out := make([]partID, len(job.parts))
	for i, p := range job.parts {
		out[i] = partID{chunk: chunk, col: p.col}
	}
	return out
}

// ioStats carries one readParts call's measurements out for metric
// observation and trace rendering: the reads' wall interval, the bytes
// decoded into frames, and the slices of the interval spent verifying
// checksums and decompressing v4 extents (accumulated across the call's
// parts). diskBytes is what the device transferred — the stored (compressed
// on v4) widths — and is counted even when observability is off, because
// the per-table disk accounting feeds TableStats; everything else is zero
// when observability is off.
type ioStats struct {
	start, end time.Time
	bytes      int64 // decoded bytes read into frames
	diskBytes  int64 // stored bytes the device actually served
	verify     time.Duration
	decomp     time.Duration
}

// readParts reads every not-yet-read part of the job from the table file
// straight into its frame: one positioned read per part — an NSM chunk's
// stripes or a DSM column extent are one contiguous page run — verified
// and, on a v4 table, decoded on the way in, while disk, the device-
// bandwidth model and diskBytes pay the stored widths. A failing part does
// not stop the others: the parts that read keep their bytes across the
// retry, which re-reads only the failures — every faulty extent advances
// through its transient-fault window in parallel instead of one extent per
// retry. The first error comes back. Called without a lock; only
// the worker owning the job touches its parts until the load commits. When
// observability is enabled it also observes the read, verify and byte
// metrics and reports its measurements.
func (s *Server) readParts(job loadJob) (ioStats, error) {
	t := job.t
	var iost ioStats
	var verify, decomp *time.Duration
	if s.o.enabled {
		iost.start = time.Now()
		verify = &iost.verify
		decomp = &iost.decomp
	}
	var firstErr error
	chunk := job.ld.Decision().Chunk
	for i := range job.parts {
		p := &job.parts[i]
		if p.read {
			continue
		}
		start := time.Now()
		first, count := t.tf.PartPages(chunk, p.col)
		stored := t.tf.StoredRunBytes(first, count)
		iost.diskBytes += stored
		if err := t.tf.readPageRange(first, count, p.f.vals, verify, decomp); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("engine: read %s pages [%d,%d): %w", t.name, first, first+int64(count), err)
			}
			continue
		}
		p.read = true
		iost.bytes += p.f.bytes()
		if bw := s.cfg.ReadBandwidth; bw > 0 {
			// Device model: this load stream moves at bw bytes/s over the
			// stored widths — a compressed extent costs its compressed size.
			// Sleep off whatever the page cache served faster than that.
			if budget := time.Duration(float64(stored) / float64(bw) * float64(time.Second)); budget > 0 {
				if spent := time.Since(start); spent < budget {
					time.Sleep(budget - spent)
				}
			}
		}
	}
	t.diskRead.Add(iost.diskBytes)
	if s.o.enabled {
		iost.end = time.Now()
		s.o.readBytes.Add(iost.diskBytes)
		s.o.decodedBytes.Add(iost.bytes)
		s.o.readSeconds.Observe((iost.end.Sub(iost.start) - iost.verify - iost.decomp).Seconds())
		s.o.verifySeconds.Observe(iost.verify.Seconds())
		if iost.decomp > 0 {
			s.o.decompressSeconds.Observe(iost.decomp.Seconds())
		}
	}
	return iost, firstErr
}

// quarantineError returns the typed failure for the lowest (chunk, column)
// quarantined part scan q still needs — its remaining range covers the
// part's chunk and (in DSM) its projection includes the part's column — or
// nil; the lowest, so that the error does not depend on map order. The fast
// path is one map-length test, so fault-free scans pay nothing.
func (s *Server) quarantineError(t *serverTable, q *core.Query) error {
	if len(t.quarantine) == 0 {
		return nil
	}
	var first partID
	var cause error
	for k, err := range t.quarantine {
		if !q.Needs(k.chunk) || (k.col >= 0 && !q.Cols.Has(k.col)) {
			continue
		}
		if cause == nil || k.chunk < first.chunk || (k.chunk == first.chunk && k.col < first.col) {
			first, cause = k, err
		}
	}
	switch {
	case cause == nil:
		return nil
	case first.col < 0:
		return fmt.Errorf("%w: %s chunk %d: %w", ErrChunkUnavailable, t.name, first.chunk, cause)
	}
	return fmt.Errorf("%w: %s chunk %d col %d: %w", ErrChunkUnavailable, t.name, first.chunk, first.col, cause)
}

// Table returns the table file at index i (the file of a detached slot is
// still returned; it remains owned by the caller who attached it).
func (s *Server) Table(i int) *TableFile { return s.slots()[i].tf }

// Lookup returns the slot serving the named live table. Detached tables are
// not found — their names are freed the moment the detach begins.
func (s *Server) Lookup(name string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.names[name]
	return i, ok
}

// TableName returns the registration name of table slot i.
func (s *Server) TableName(i int) string { return s.slots()[i].name }

// Scan executes one cooperative scan over the given chunk ranges of table
// `table` in the calling goroutine, invoking onChunk for every delivered
// chunk in the policy's delivery order (out-of-order for elevator and
// relevance). cols is the scan's projection: on a DSM table only those
// columns are loaded, delivered and paid for; on an NSM table the whole
// chunk is loaded regardless (and delivered in full), but the declared
// projection still drives the useful-bytes accounting in the returned
// stats. It blocks until the scan has consumed its whole range and returns
// the query's statistics (times are wall-clock seconds since server
// start). Scan is ScanWith under the background context.
func (s *Server) Scan(table int, name string, ranges storage.RangeSet, cols storage.ColSet, onChunk func(chunk int, data ChunkData)) (core.Stats, error) {
	return s.ScanWith(context.Background(), ScanRequest{Table: table, Name: name, Ranges: ranges, Cols: cols}, onChunk)
}

// PredRange is one conjunct of a scan's predicate: column Col's value lies
// in [Lo, Hi], inclusive. The engine uses it only to prune — chunks whose
// persisted zonemap bounds cannot intersect the interval are dropped from
// the registration — so a predicate is always safe to pass: tuple-level
// filtering stays the kernel's job, and on the one column without bounds
// (the comment filler) the predicate simply prunes nothing.
type PredRange struct {
	Col    int
	Lo, Hi int64
}

// ScanRequest names everything one cooperative scan needs: the table slot,
// a diagnostic name, the chunk ranges, the column projection and an
// optional SLO weight.
type ScanRequest struct {
	Table  int
	Name   string
	Ranges storage.RangeSet
	Cols   storage.ColSet
	// Weight is the scan's starvation weight under the relevance policy:
	// the scheduler ranks the query as if it had remaining/Weight chunks
	// left, so higher-weight (interactive) scans cannot be starved by
	// floods of weight-1 (batch) ones. Zero means the default 1, which is
	// exactly the paper's unweighted formula.
	Weight float64
	// Preds are the scan's predicate ranges (§2(2) of the paper: chunk
	// metadata such as min/max values lets table scans skip chunks). Every
	// conjunct prunes independently; the query registers with the
	// intersection, so the scheduler's interest sets shrink to the chunks
	// that can actually match.
	Preds []PredRange
}

// ScanWith is the full scan request — per-request options included — under
// a context: when ctx is cancelled or its deadline passes, the scan — even
// one parked on its stream's condition variable waiting for a chunk that may
// never load — wakes, unregisters its query, releases nothing it still holds
// (pins are only held inside a delivery, never across the wait), and returns
// ctx's error. Cancellation is observed between chunk deliveries: an onChunk
// already in progress runs to completion. A nil ctx is Background.
func (s *Server) ScanWith(ctx context.Context, req ScanRequest, onChunk func(chunk int, data ChunkData)) (core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Weight < 0 {
		return core.Stats{}, fmt.Errorf("%w: scan %q weight %v", ErrInvalidWeight, req.Name, req.Weight)
	}
	tables := s.slots()
	if req.Table < 0 || req.Table >= len(tables) {
		return core.Stats{}, fmt.Errorf("%w: scan %q over table %d of %d", ErrUnknownTable, req.Name, req.Table, len(tables))
	}
	t := tables[req.Table]
	// Validate before touching shared state: core.NewQuery panics on these,
	// and a panic while holding t.mu would wedge the table. The table file
	// is immutable, so these reads are safe without the lock; a concurrent
	// detach is caught by the delivery loop.
	if req.Ranges.Empty() {
		return core.Stats{}, fmt.Errorf("%w: scan %q over empty range set", ErrInvalidRange, req.Name)
	}
	if min := req.Ranges.Min(); min < 0 {
		return core.Stats{}, fmt.Errorf("%w: scan %q range %v starts below zero", ErrInvalidRange, req.Name, req.Ranges)
	}
	if req.Ranges.Max() >= t.tf.NumChunks() {
		return core.Stats{}, fmt.Errorf("%w: scan %q range %v beyond table (%d chunks)", ErrInvalidRange, req.Name, req.Ranges, t.tf.NumChunks())
	}
	if req.Cols.Empty() {
		return core.Stats{}, fmt.Errorf("%w: scan %q declares no columns", ErrInvalidColumns, req.Name)
	}
	if bad := req.Cols.Minus(storage.AllCols(NumCols)); !bad.Empty() {
		return core.Stats{}, fmt.Errorf("%w: scan %q reads columns %v beyond the stored %d", ErrInvalidColumns, req.Name, bad, NumCols)
	}
	// Zonemap pruning: drop every chunk whose persisted bounds exclude a
	// predicate before the query ever reaches the scheduler. A predicate
	// over the column without bounds (the comment filler) prunes nothing —
	// predicates are hints, never filters, so correctness cannot depend on
	// them. An empty Lo>Hi interval legitimately prunes
	// everything (e.g. a quantity filter below the column's domain).
	if len(req.Preds) > 0 {
		for _, p := range req.Preds {
			if p.Col < 0 || p.Col >= NumCols {
				return core.Stats{}, fmt.Errorf("%w: scan %q predicate on column %d of %d", ErrInvalidColumns, req.Name, p.Col, NumCols)
			}
		}
		kept := req.Ranges
		for _, p := range req.Preds {
			zm := t.tf.ZoneMap(p.Col)
			if zm == nil {
				continue
			}
			kept = kept.Intersect(zm.Prune(p.Lo, p.Hi))
		}
		if skipped := req.Ranges.Len() - kept.Len(); skipped > 0 {
			t.pruned.add(int64(skipped))
		}
		if kept.Empty() {
			// Every requested chunk's bounds exclude the predicate: the
			// scan is complete with zero chunks, no query registered.
			return core.Stats{Query: req.Name}, nil
		}
		req.Ranges = kept
	}
	if !s.o.enabled {
		return s.scanStream(ctx, t, req, onChunk)
	}
	// With observability on, label the stream's goroutine so CPU and
	// goroutine profiles attribute work to the scan and its table.
	var st core.Stats
	var err error
	pprof.Do(ctx, pprof.Labels("scan", req.Name, "table", t.name), func(ctx context.Context) {
		st, err = s.scanStream(ctx, t, req, onChunk)
	})
	return st, err
}

// scanStream is the body of one query stream: it enqueues its query for the
// scheduler's next admission pass, then loops pick → pin → deliver →
// release until the range is consumed, parking on its own condition
// variable while queued or blocked (woken by the query's waker).
func (s *Server) scanStream(ctx context.Context, t *serverTable, req ScanRequest, onChunk func(chunk int, data ChunkData)) (core.Stats, error) {
	name, ranges, cols := req.Name, req.Ranges, req.Cols
	// w is this stream's private condition variable on its table's lock:
	// the stream parks on it and is woken individually — by its query's
	// waker (an availability gain, a quarantine or detach of its table,
	// shutdown) or its context firing.
	w := sync.NewCond(&t.mu)
	// A context firing must unblock a scan parked in w.Wait. Taking t.mu
	// orders the signal after the stream's park: the stream holds t.mu from
	// its ctx.Err() check until the Wait releases it. The callback runs in a
	// goroutine of its own only once the context fires.
	stop := context.AfterFunc(ctx, func() {
		t.mu.Lock()
		w.Signal()
		t.mu.Unlock()
	})
	defer stop()
	dsm := t.tf.Format() == DSM
	projBytes := ProjectionBytes(cols)
	// held are the frames of the chunk being delivered, as Pin hands them over
	// (one on NSM, one per projected column on DSM); scratch is the delivery's
	// column index and memo its index of the frames' receipt-sum slots.
	held := make([]any, 0, NumCols)
	scratch := make([][]int64, NumCols)
	memo := make([]*atomic.Uint64, NumCols)
	if s.o.enabled {
		scanStart := time.Now()
		defer func() { t.o.scan.Observe(time.Since(scanStart).Seconds()) }()
	}
	var track obs.Track
	if s.o.tracer != nil {
		track = s.o.tracer.NewTrack("scan " + name + " [" + t.name + "]")
	}
	var useful int64
	// waitStart is nonzero while a traced blocked period is open. The waker
	// fires on every availability gain, which the policy's picker may still
	// decline (e.g. the sequential cursor wants a specific chunk), so a
	// blocked stream can wake more than once per delivered chunk;
	// consecutive blocked loop iterations coalesce into ONE wait span,
	// closed when the stream unblocks (or exits).
	var waitStart time.Time
	closeWait := func() {
		if !waitStart.IsZero() {
			track.Span("wait", waitStart, nil)
			waitStart = time.Time{}
		}
	}
	t.mu.Lock()
	// Queue the query on its table's ABM for the scheduler's next admission
	// pass, whose waker call wakes this stream parked in the loop below. Until
	// then the loop's closed, context, detach and quarantine checks cover the
	// queued stream as they cover a registered one.
	q := t.abm.NewQuery(name, ranges, cols)
	if req.Weight > 0 && req.Weight != 1 {
		q.SetWeight(req.Weight)
	}
	q.SetWaker(w.Signal)
	t.abm.Enqueue(q)
	s.wake()
	// leave is the stream's one exit: close an open wait span, finish the
	// query (unregistered, or taken out of the queue), count the outcome,
	// and kick the scheduler off the lock — a departing query shifts demand
	// and may be what a detach is quiescing on (after Close the scheduler is
	// gone and the token is never read).
	leave := func(err error, outcome *tally) (core.Stats, error) {
		closeWait()
		st := t.abm.Finish(q)
		if outcome != nil {
			outcome.add(1)
		}
		t.mu.Unlock()
		s.wake()
		st.BytesUseful = useful
		return st, err
	}
	for !q.Finished() {
		if s.closed.Load() {
			return leave(ErrClosed, nil)
		}
		if cerr := ctx.Err(); cerr != nil {
			return leave(fmt.Errorf("engine: scan %q: %w", name, cerr), &s.o.cancelledScans)
		}
		if t.detaching {
			// The table is being detached: leave so the scheduler can
			// quiesce and finalise it, and fail typed.
			return leave(fmt.Errorf("engine: scan %q: %w: table %s", name, ErrTableDetached, t.name), nil)
		}
		if qerr := s.quarantineError(t, q); qerr != nil {
			return leave(qerr, &s.o.failedScans)
		}
		c := t.abm.Policy().PickAvailable(q)
		if c < 0 {
			// A newly set blocked flag must reach the scheduler before it
			// re-evaluates eviction (the relevance relaxation passes fire only
			// when every registered query is blocked), so kick it; a queued
			// query is never marked. Then park until the query's waker (its
			// admission, an availability gain, a quarantine, a detach or
			// shutdown) or the context fires.
			if q.SetBlocked(true) {
				s.wake()
			}
			if s.o.tracer != nil && waitStart.IsZero() {
				waitStart = time.Now()
			}
			w.Wait()
			q.SetBlocked(false)
			continue
		}
		closeWait()
		var deliverStart time.Time
		if s.o.enabled {
			deliverStart = time.Now()
		}
		pinned := t.abm.PinnedParts()
		held = t.abm.Pin(q, c, held[:0])
		s.o.pinned.add(int64(t.abm.PinnedParts() - pinned))
		s.o.hits.add(int64(len(held)))
		// The pin lifts the chunk's fresh-load eviction protection, and the
		// Release ending the last turn may have freed room or starved q: kick
		// the scheduler so the next load overlaps this chunk's processing.
		s.wake()
		tuples := t.tf.Layout().ChunkTuples(c)
		data := ChunkData{vecs: scratch, cols: cols, tuples: tuples, memo: memo, table: t, chunk: c}
		if dsm {
			// Per-column frames, in the projection's column order: deliver
			// exactly the projection.
			i := 0
			cols.Each(func(col int) {
				f := held[i].(*frame)
				i++
				scratch[col] = f.vals
				memo[col] = &f.crcs[0]
			})
		} else {
			// The NSM chunk frame holds the stripes in column order.
			f := held[0].(*frame)
			data.vecs = t.tf.stripes(scratch[:0], f.vals)
			data.cols = storage.AllCols(NumCols)
			for j := range memo {
				memo[j] = &f.crcs[j]
			}
		}
		useful += tuples * projBytes
		t.o.useful.Add(tuples * projBytes)
		if s.o.tracer != nil {
			track.SpanAt("deliver", deliverStart, time.Now(), obs.Args{"chunk": c})
		}
		t.mu.Unlock()
		var procStart time.Time
		if s.o.tracer != nil {
			procStart = time.Now()
		}
		if onChunk != nil {
			onChunk(c, data)
		}
		if s.o.tracer != nil {
			track.SpanAt("process", procStart, time.Now(), obs.Args{"chunk": c})
		}
		t.mu.Lock()
		pinned = t.abm.PinnedParts()
		t.abm.Release(q, c)
		s.o.pinned.add(int64(t.abm.PinnedParts() - pinned))
		// No kick: the next Pin, the blocked flag or leave kicks (Server.kick).
	}
	return leave(nil, nil)
}

// Stats returns the server's counters: one entry per table plus the
// buffer's part traffic and the fault counters.
func (s *Server) Stats() ServerStats {
	out := ServerStats{
		Pool: PoolStats{
			Hits:        int(s.o.hits.n.Load()),
			Misses:      int(s.o.misses.n.Load()),
			Evictions:   int(s.o.evictions.n.Load()),
			BytesLoaded: s.o.loaded.n.Load(),
			Resident:    int(s.o.resident.n.Load()),
			Pinned:      int(s.o.pinned.n.Load()),
		},
		Faults: FaultStats{
			Retries:          s.o.retries.n.Load(),
			ChecksumErrors:   s.o.checksumErrors.n.Load(),
			QuarantinedParts: s.o.quarantined.n.Load(),
			FailedScans:      s.o.failedScans.n.Load(),
			CancelledScans:   s.o.cancelledScans.n.Load(),
		},
	}
	s.eachTable(func(t *serverTable) error {
		if t.detached {
			return nil
		}
		schedDur, schedCalls := t.abm.SchedulingCost()
		out.Tables = append(out.Tables, TableStats{
			Name:          t.name,
			ABM:           t.abm.Stats(),
			BudgetBytes:   t.abm.BufferBytes(),
			SchedNanos:    schedDur.Nanoseconds(),
			SchedCalls:    schedCalls,
			DiskBytesRead: t.diskRead.Load(),
			ChunksPruned:  t.pruned.n.Load(),

			ReceiptCRCsComputed: t.receipts.computed.n.Load(),
			ReceiptCRCsReused:   t.receipts.reused.n.Load(),
			KernelChunksNone:    t.kernels[storage.None].n.Load(),
			KernelChunksDateAll: t.kernels[storage.All].n.Load(),
			KernelChunksSome:    t.kernels[storage.Some].n.Load(),
		})
		return nil
	})
	return out
}

// Status is the server's live snapshot — the JSON document /statusz serves
// and the CLIs' shared report renders: identity (policy, uptime), the
// instantaneous scheduler state, and the same per-table/pool/fault counters
// Stats returns.
type Status struct {
	Policy        string       `json:"policy"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	InFlight      int          `json:"in_flight"`
	Tables        []TableStats `json:"tables"`
	Pool          PoolStats    `json:"pool"`
	Faults        FaultStats   `json:"faults"`
}

// StatusSnapshot returns the server's current Status.
func (s *Server) StatusSnapshot() Status {
	st := s.Stats()
	return Status{
		Policy:        s.cfg.Policy.String(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      int(s.inFlight.Load()),
		Tables:        st.Tables,
		Pool:          st.Pool,
		Faults:        st.Faults,
	}
}

// Budgets returns the current arbiter grants in table-slot order (zero for
// detached slots).
func (s *Server) Budgets() []int64 {
	var out []int64
	s.eachTable(func(t *serverTable) error {
		var b int64
		if !t.detached {
			b = t.abm.BufferBytes()
		}
		out = append(out, b)
		return nil
	})
	return out
}

// Close is a graceful drain: it stops the scheduler from issuing new
// loads, lets the workers finish (commit) or abort their in-flight loads
// — a load mid-retry aborts instead of sleeping out its backoff — wakes
// every waiter, joins the workers, and returns every frame. Outstanding
// Scans are woken and return ErrClosed; scans entered after Close return
// ErrClosed immediately. The error is always nil: no failure is fatal to
// the server (load failures stay in their load's fault domain).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.wake()
		s.mu.Lock()
		s.detachCond.Broadcast()
		s.mu.Unlock()
		// A stream checks closed under its table's lock and parks without
		// dropping it, so waking each table's queries under that lock
		// reaches every stream that did not see the flag.
		s.eachTable(func(t *serverTable) error {
			t.abm.WakeQueries()
			return nil
		})
		<-s.schedDone
		close(s.loadCh)
		s.workerWG.Wait()
		s.eachTable(func(t *serverTable) error {
			s.releaseFrames(t)
			return nil
		})
	})
	return nil
}

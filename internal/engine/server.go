package engine

// Locks: each table's mu guards that table's ABM and runtime state, Server.mu
// only the cross-table state, and the frame allocator has its own. The order
// is Server.mu → table locks in slot order → frame allocator; streams and
// workers take their own table's lock alone. Workers drop it for the real
// file reads and streams while processing delivered chunks, so decision
// making, I/O depth and query CPU all overlap, and tables never wait on each
// other. The scheduler loop and Close below take one table's lock at a time,
// or Server.mu with table locks inside it (attach.go).

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/obs"
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
	// budget arbiter (core.Manager.Rebalance) divides it between the
	// per-table ABMs by footprint whenever a table attaches or detaches;
	// it must cover at least two chunks of every attached table.
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
	// calls by what the chunk's bounds decided (storage.Decided), decodes its
	// coded parts by whether a reader decoded them; scans bump all three from
	// their callbacks without a lock, evictions decodes.unread under mu.
	receipts receiptMeter
	kernels  [3]tally
	decodes  decodeMeter
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
// A stream joins through its table's admission queue: it enqueues its query
// and the scheduler admits every live table's queue once per pass — its call
// of core.ABM.AdmitQueued is the only one — so a query enqueued during pass
// k is registered and pickable at pass k+1. That is the engine's fairness
// valve: a burst of arrivals joins as one batch, behind the streams already
// delivering.
//
// The budget arbiter (core.Manager) runs when the table set changes — at
// NewServer, on every Attach and on every detach's finalisation: it
// re-divides the budget by table footprint, but never grants a table less
// than it currently uses, so every table's frames stay within its grant
// (AuditTables checks it).
type Server struct {
	cfg ServerConfig

	// mu guards the cross-table state: slot registration, the budget
	// arbiter (mgr), attach/detach and detachCond. No stream or worker takes
	// it.
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
	// and read with no lock, so a scan takes no server-wide lock. It is the
	// one name registry too: a name resolves to its slot until the detach
	// begins (Server.live), and a detached slot stays as a tombstone.
	tables atomic.Pointer[[]*serverTable]
	// detachCond wakes DetachTable callers when the scheduler finalises a
	// quiesced detach, and on shutdown so no caller waits on a dead
	// scheduler.
	detachCond *sync.Cond
	// frames is the frame allocator every table's loads draw from.
	frames *frameAlloc
	// rr rotates the scheduler's table scan so no table monopolises the
	// load queue; the scheduler goroutine alone touches it.
	rr int

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

// scheduler is the live ABM decision loop: each pass admits every live
// table's queued scans under that table's lock (the one call of
// core.ABM.AdmitQueued; see Server), finalises quiesced detaches under
// Server.mu, and keeps up to InFlightDepth loads issued across the tables, then parks until a kick says a
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
		s.mu.Unlock()
		if s.o.inflight.n.Load() < int64(s.cfg.InFlightDepth) && s.issueOne(tables) {
			continue
		}
		<-s.kick
	}
}

// wake kicks the scheduler without blocking (see Server.kick).
func (s *Server) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
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

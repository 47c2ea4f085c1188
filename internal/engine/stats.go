package engine

// Lock rule: every readout and audit takes each table's lock alone, in slot
// order (eachTable); the server-wide counters are atomics read with no lock.

import (
	"fmt"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/storage"
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
	// PartsDecoded and PartsUnread count the coded DSM parts that landed
	// undecoded by how their residency ended: decoded at their first read,
	// or gone — evicted, detached, shut down — with no scan having read them.
	// PartsUnread is decode work the deferral saved.
	PartsDecoded int64
	PartsUnread  int64
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
	Tables []TableStats `json:"tables"`
	Pool   PoolStats    `json:"pool"`
	Faults FaultStats   `json:"faults"`
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
			PartsDecoded:        t.decodes.decoded.n.Load(),
			PartsUnread:         t.decodes.unread.n.Load(),
		})
		return nil
	})
	return out
}

// Status is the server's live snapshot — the JSON document /statusz serves
// and the CLIs' shared report renders: identity (policy, uptime), the
// instantaneous scheduler state, and the counters Stats returns.
type Status struct {
	Policy        string  `json:"policy"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int     `json:"in_flight"`
	ServerStats
}

// StatusSnapshot returns the server's current Status.
func (s *Server) StatusSnapshot() Status {
	return Status{
		Policy:        s.cfg.Policy.String(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      int(s.o.inflight.n.Load()),
		ServerStats:   s.Stats(),
	}
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

// AuditTables cross-checks every table ABM's incrementally maintained
// scheduler structures (counters, availability and candidate
// heaps, victim heap) against a linear recomputation from first principles,
// the frames its parts carry against their reservations, and its usage
// against its grant, each table under its own lock. The arbiter never
// grants a table less than it uses, and a load reserves only the bytes its
// eviction pass made room for (no page of a table file is shared between
// parts), so no table is ever over its grant: nothing has to drain an
// excess. It is the soak harness's mid-flight invariant probe; production
// code never calls it.
func (s *Server) AuditTables() error {
	return s.eachTable(func(t *serverTable) error { return t.audit((*core.ABM).AuditIncremental, t.detached) })
}

// AuditDrained checks the quiescent-state invariants once every scan has
// returned and no load is in flight: no pins or loading parts left behind,
// no load ticket open, no leaked assembly marks, byte accounting intact, no
// table over its budget, and no frame held by anything but a resident part —
// none stranded on a load job, none on a detached slot, none at all once the
// server has closed. Like AuditTables it exists for the soak harness.
func (s *Server) AuditDrained() error {
	return s.eachTable(func(t *serverTable) error {
		return t.audit((*core.ABM).AuditDrained, t.detached || s.closed.Load())
	})
}

// audit is AuditTables' and AuditDrained's check of one table, under its
// lock: its frames (released: none may be drawn), then, unless the table is
// detached, the ABM's own invariants (check) and its usage against its grant.
func (t *serverTable) audit(check func(*core.ABM) error, released bool) error {
	if err := t.auditFrames(released); err != nil || t.detached {
		return err
	}
	if err := check(t.abm); err != nil {
		return fmt.Errorf("engine: table %s: %w", t.name, err)
	}
	if free := t.abm.FreeBytes(); free < 0 {
		return fmt.Errorf("engine: table %s over its grant: free = %d", t.name, free)
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

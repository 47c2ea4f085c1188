package engine

// Lock rule: everything in this file runs under Server.mu (NewServer's
// admissions excepted: nothing else runs yet). A step that touches a table's
// runtime state takes that table's lock inside it, in slot order.

import (
	"fmt"

	"coopscan/internal/core"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// admit is the admission step NewServer and Attach share: it refuses an
// empty or taken name (ErrAttachIncompatible, ErrTableExists) and a table
// the budget cannot cover at the arbiter's two-chunk floor
// (core.ChunkFloorBytes) of every live table plus its own
// (ErrAttachIncompatible); otherwise it builds the table's runtime state in
// the next slot and registers its ABM with the arbiter at the floor,
// publishing the new slot snapshot. The caller runs the arbiter,
// which grants the rest of the budget by footprint. Callers hold Server.mu,
// or are NewServer.
func (s *Server) admit(name string, tf *TableFile) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("%w: empty table name", ErrAttachIncompatible)
	}
	floor := core.ChunkFloorBytes(tf.Layout())
	slots := s.slots()
	for _, t := range slots {
		switch {
		case t.detached:
		case t.name != name:
			floor += core.ChunkFloorBytes(t.tf.Layout())
		case t.detaching:
			return 0, fmt.Errorf("%w: %q is still draining", ErrTableExists, name)
		default:
			return 0, fmt.Errorf("%w: %q", ErrTableExists, name)
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
	s.frames.retain(t.partSizes())
	t.abm = s.mgr.AttachAs(name, tf.Layout(), core.ChunkFloorBytes(tf.Layout()))
	t.abm.SetEvictHook(func(chunk, col int, f any) {
		// The ABM evicted one part — an NSM chunk (col -1) or a DSM
		// column part: return its frame for the next load of that size.
		// Sibling columns of the same chunk keep theirs. Runs under t.mu,
		// from an EnsureSpace inside the scheduler.
		t.countUnread(f.(*frame))
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
	t.decodes.decoded.c = s.o.partDecodes.With(name, "decoded")
	t.decodes.unread.c = s.o.partDecodes.With(name, "unread")
	t.o.decompress = s.o.decompressSeconds
	for decided, label := range [...]string{storage.Some: "some", storage.None: "none", storage.All: "date_all"} {
		t.kernels[decided].c = s.o.kernelChunks.With(name, label)
	}
	next := append(slots[:len(slots):len(slots)], t)
	s.tables.Store(&next)
	return t.idx, nil
}

// slots returns the current slot snapshot; callers must not modify it.
func (s *Server) slots() []*serverTable { return *s.tables.Load() }

// Table returns the table file at index i (the file of a detached slot is
// still returned; it remains owned by the caller who attached it).
func (s *Server) Table(i int) *TableFile { return s.slots()[i].tf }

// Lookup returns the slot serving the named live table. Detached tables are
// not found — their names are freed the moment the detach begins.
func (s *Server) Lookup(name string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live(name)
}

// live is Lookup for a caller holding Server.mu (detaching is written under
// it): the slot of that name whose detach has not begun.
func (s *Server) live(name string) (int, bool) {
	for _, t := range s.slots() {
		if t.name == name && !t.detaching {
			return t.idx, true
		}
	}
	return 0, false
}

// TableName returns the registration name of table slot i.
func (s *Server) TableName(i int) string { return s.slots()[i].name }

// rebalance runs the budget arbiter holding every attached table's lock, in
// slot order, and traces its grants. It is called when the table set
// changes: by NewServer, Attach and finalizeDetaches. Callers hold
// Server.mu, or are NewServer.
func (s *Server) rebalance() {
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
	if s.o.tracer != nil {
		s.o.schedTrack.Instant("rebalance", obs.Args{"grants": grants})
	}
}

// Attach adds a table file to the running server under the given
// registration name and returns its slot. The table joins the shared budget
// immediately: its ABM is granted the two-chunk floor and the arbiter
// rebalances, so scans can target the slot as soon as Attach returns. The
// file remains owned by the caller (it is not closed by Close or
// DetachTable).
//
// Tables of any chunk geometry mix under the one budget: frames are drawn
// per part size, so a table with smaller (or larger) chunks than its
// neighbours needs nothing but its share of the bytes.
//
// Attach fails typed: ErrClosed after shutdown, ErrTableExists when the
// name serves a live table (or one still draining out of DetachTable), and
// ErrAttachIncompatible for an empty name or a buffer budget that no longer
// covers the two-chunk floor of every attached table.
func (s *Server) Attach(name string, tf *TableFile) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	idx, err := s.admit(name, tf)
	if err != nil {
		return 0, err
	}
	s.rebalance()
	s.o.schedTrack.Instant("attach", obs.Args{"table": name, "slot": idx})
	s.wake()
	return idx, nil
}

// DetachTable removes the named table from the running server and blocks
// until its drain completes: the name is freed immediately, queued, parked
// and future scans against it fail with ErrTableDetached, the scheduler stops
// issuing its loads, and — once its last in-flight load lands and its last
// stream leaves — the scheduler finalises the slot (returns its
// frames, clears the quarantine state, returns the grant to the arbiter and
// shuts the ABM down). The slot stays behind as a tombstone;
// the freed budget is rebalanced to the remaining tables. Returns
// ErrUnknownTable for a name not live, ErrClosed if the server shuts down
// before the drain completes.
func (s *Server) DetachTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	i, ok := s.live(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	t := s.slots()[i]
	// Wake this table's parked and queued streams so they observe the detach
	// and leave; wake the scheduler so it stops admitting the table's queue
	// and finalises it once it quiesces.
	t.mu.Lock()
	t.detaching = true
	t.abm.WakeQueries()
	t.mu.Unlock()
	s.wake()
	for !t.detached && !s.closed.Load() {
		s.detachCond.Wait()
	}
	if !t.detached {
		return ErrClosed
	}
	return nil
}

// finalizeDetaches retires every detaching table that has quiesced — no
// in-flight loads, no registered or queued streams (core.ABM.Idle).
// Finalisation returns the table's frames to the allocator (which drops the
// free frames of a size class this was the last table to use), clears its
// quarantine map, detaches the ABM from the budget arbiter (which shuts it
// down) and rebalances the freed grant to the remaining tables. Runs in the
// scheduler loop under Server.mu, taking each detaching table's lock.
func (s *Server) finalizeDetaches() {
	for _, t := range s.slots() {
		if !t.detaching || t.detached {
			continue
		}
		t.mu.Lock()
		if !t.abm.Idle() {
			t.mu.Unlock()
			continue
		}
		s.releaseFrames(t)
		s.frames.release(t.partSizes())
		clear(t.quarantine)
		s.mgr.Detach(t.name)
		t.detached = true
		t.mu.Unlock()
		s.rebalance()
		s.o.schedTrack.Instant("detach", obs.Args{"table": t.name, "slot": t.idx})
		s.detachCond.Broadcast()
	}
}

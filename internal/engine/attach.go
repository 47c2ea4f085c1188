package engine

import (
	"fmt"

	"coopscan/internal/obs"
)

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
	if s.closed {
		return 0, ErrClosed
	}
	idx, err := s.admit(name, tf)
	if err != nil {
		return 0, err
	}
	s.mgr.Rebalance(s.cfg.BufferBytes)
	if s.o.tracer != nil {
		s.o.schedTrack.Instant("attach", obs.Args{"table": name, "slot": idx})
	}
	s.cond.Signal()
	return idx, nil
}

// DetachTable removes the named table from the running server and blocks
// until its drain completes: the name is freed immediately, queued and
// future registrations against it fail with ErrTableDetached, parked
// streams wake and return the same typed error, the scheduler stops
// issuing its loads, and — once its last in-flight load lands and its last
// stream unregisters — the scheduler finalises the slot (returns its
// frames, clears the quarantine state, returns the grant to the arbiter and
// shuts the ABM down). The slot stays behind as a tombstone;
// the freed budget is rebalanced to the remaining tables. Returns
// ErrUnknownTable for a name not live, ErrClosed if the server shuts down
// before the drain completes.
func (s *Server) DetachTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	i, ok := s.names[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	t := s.tables[i]
	t.detaching = true
	delete(s.names, name)
	// Wake this table's parked streams so they observe the detach and
	// unregister; wake the scheduler so it fails queued registrations and
	// finalises once the table quiesces.
	t.abm.WakeQueries()
	s.cond.Signal()
	for !t.detached && !s.closed {
		s.detachCond.Wait()
	}
	if !t.detached {
		return ErrClosed
	}
	return nil
}

// finalizeDetaches retires every detaching table that has quiesced — no
// in-flight loads, no registered streams (queued registrations were failed
// by the drainRegs call preceding this one). Finalisation returns the
// table's frames to the allocator (which drops the free frames of a size
// class this was the last table to use), clears its quarantine map,
// detaches the ABM from the budget arbiter (which shuts it down) and
// rebalances the freed grant to the remaining tables. Runs in the scheduler
// loop under mu.
func (s *Server) finalizeDetaches() {
	for _, t := range s.tables {
		if !t.detaching || t.detached || !t.abm.Idle() {
			continue
		}
		s.releaseFrames(t)
		s.frames.release(partSizes(t.tf))
		for k := range t.quarantine {
			delete(t.quarantine, k)
		}
		s.mgr.Detach(t.name)
		t.detached = true
		s.mgr.Rebalance(s.cfg.BufferBytes)
		if s.o.tracer != nil {
			s.o.schedTrack.Instant("detach", obs.Args{"table": t.name, "slot": t.idx})
		}
		s.detachCond.Broadcast()
	}
}

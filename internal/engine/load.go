package engine

// Lock rule: the load pipeline holds one table's lock at a time, never across
// a file read: a load is issued under its table's lock, read with no lock
// held, and landed or aborted under the lock again.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/obs"
)

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
			s.o.inflight.add(1)
			s.rr = (i + 1) % n
			// Never blocks: inflight < depth == cap(loadCh) and workers drain.
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

// worker executes issued loads: the real file reads happen without a lock,
// straight into the job's frames; then the completion — landing the ticket,
// which hands each part its frame — commits under the job's table lock.
// Completions land in read-completion order, not issue order; the ABM's part
// states (marked loading at issue) keep the two decoupled.
//
// A load is its own fault domain. A failed read or checksum verification
// retries with bounded exponential backoff (the job keeps its in-flight
// slot, so the scheduler never over-issues while it heals); a load that
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
			dEnd := vStart.Add(iost.decomp)
			if iost.decomp > 0 {
				job.lane.SpanAt("decompress", vStart, dEnd, nil)
			}
			job.lane.SpanAt("verify", dEnd, iost.end, nil)
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
		s.o.inflight.add(-1)
		// A slot freed: only the scheduler cares. Streams interested in the
		// landed chunk were woken by their queries' wakers in Load.Finish.
		s.wake()
	}
}

// ioStats carries one readParts call's measurements out for metric
// observation and trace rendering: the reads' wall interval, the decoded
// bytes of the frames read, and the slices of the interval spent verifying
// (checksums and codec checks) and decoding the extents too large to defer
// (accumulated across the call's parts). diskBytes is what the device
// transferred — the stored (compressed) widths — and is counted even when
// observability is off, because the per-table disk accounting feeds
// TableStats; everything else is zero when observability is off.
type ioStats struct {
	start, end time.Time
	bytes      int64 // decoded bytes of the frames read
	diskBytes  int64 // stored bytes the device actually served
	verify     time.Duration
	decomp     time.Duration
}

// readParts reads every not-yet-read part of the job from the table file
// straight into its frame: one positioned read per part — an NSM chunk's
// stripes or a DSM column extent are one contiguous page run — verified
// and, for a coded extent, checked on the way in and left in the tail of
// the frame for the part's first reader to decode (an extent larger than its
// frame is decoded here), while disk, the device-bandwidth model and
// diskBytes pay the stored widths. A failing part does
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
		coded, err := t.tf.readPageRange(first, count, p.f.vals, verify, decomp)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("engine: read %s pages [%d,%d): %w", t.name, first, first+int64(count), err)
			}
			continue
		}
		p.f.coded = coded
		p.f.decoded.Store(coded == 0)
		p.read = true
		iost.bytes += p.f.bytes()
		if bw := s.cfg.ReadBandwidth; bw > 0 {
			// Device model: this load stream moves at bw bytes/s over the
			// stored widths — a compressed extent costs its compressed size.
			// Sleep off whatever the page cache served faster than that (a
			// negative pause returns at once).
			time.Sleep(time.Duration(float64(stored)/float64(bw)*float64(time.Second)) - time.Since(start))
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
	base := s.cfg.RetryBackoff
	d := min(base<<min(attempt, 7), 100*base)
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
			s.o.schedTrack.Instant("quarantine", obs.Args{"table": job.t.name, "chunk": k.chunk, "col": k.col})
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

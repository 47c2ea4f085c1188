package engine

// Lock rule: a stream holds its own table's lock and no other, and drops it
// while onChunk runs. Validation and pruning run with no lock, on the slot
// snapshot and the immutable table file.

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

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
		kept := req.Ranges
		for _, p := range req.Preds {
			if p.Col < 0 || p.Col >= NumCols {
				return core.Stats{}, fmt.Errorf("%w: scan %q predicate on column %d of %d", ErrInvalidColumns, req.Name, p.Col, NumCols)
			}
			if zm := t.tf.ZoneMap(p.Col); zm != nil {
				kept = kept.Intersect(zm.Prune(p.Lo, p.Hi))
			}
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
	// (one on NSM, one per projected column on DSM); parts is the delivery's
	// index of them by column and wins, on NSM, of the columns' windows.
	held := make([]any, 0, NumCols)
	parts := make([]*frame, NumCols)
	var wins [][]int64
	if !dsm {
		wins = make([][]int64, 0, NumCols)
	}
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
	// and kick the scheduler off the lock — a departing query changes what
	// is worth loading and may be what a detach is quiescing on (after Close the scheduler is
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
		data := ChunkData{parts: parts, cols: cols, tuples: tuples, table: t, chunk: c}
		if dsm {
			// Per-column frames, in the projection's column order: deliver
			// exactly the projection.
			i := 0
			cols.Each(func(col int) {
				parts[col] = held[i].(*frame)
				i++
			})
		} else {
			// The NSM chunk frame holds the stripes in column order.
			f := held[0].(*frame)
			for j := range parts {
				parts[j] = f
			}
			data.wins = t.tf.stripes(wins[:0], f.vals)
			data.cols = storage.AllCols(NumCols)
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

package engine

import (
	"context"
	"time"

	"coopscan/internal/bufferpool"
	"coopscan/internal/core"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// Config parameterises a single-table live engine instance.
type Config struct {
	// Policy is the scheduling policy (all four of the paper's policies
	// work: the engine drives the shared core.SchedulerPolicy decision
	// core).
	Policy core.Policy
	// BufferBytes is the buffer budget; it must hold at least two chunks.
	BufferBytes int64
	// InFlightDepth bounds how many chunk loads may be outstanding at
	// once (default 4; 1 reproduces the original one-read-at-a-time
	// scheduler).
	InFlightDepth int
	// StarveThreshold forwards to core.Config.
	StarveThreshold int
	// ReadBandwidth forwards to ServerConfig.ReadBandwidth: an optional
	// per-load-stream device bandwidth model (bytes/s, 0 = off).
	ReadBandwidth int64
	// LoadRetries and RetryBackoff forward to ServerConfig: the per-load
	// fault domain's retry budget and backoff base (0 = defaults).
	LoadRetries  int
	RetryBackoff time.Duration
	// MeasureScheduling forwards to ServerConfig.MeasureScheduling: meter
	// the wall-clock cost of the policy's scheduling decisions.
	MeasureScheduling bool
	// Obs and Trace forward to ServerConfig: an optional metrics registry
	// and scan-timeline tracer (nil = observability off).
	Obs   *obs.Registry
	Trace *obs.Tracer
}

// SystemStats aggregates a run's counters across both accounting layers:
// the ABM's chunk-level decisions and the underlying page pool's real I/O.
type SystemStats struct {
	ABM    core.SystemStats // chunk-level loads/evictions/bytes (decision layer)
	Pool   bufferpool.Stats // page-level hits/misses/evictions (real I/O layer)
	Faults FaultStats       // retries, quarantines, failed/cancelled scans
}

// Engine executes cooperative scans over one TableFile in wall-clock time.
// It is the single-table convenience wrapper around Server — the same
// scheduler goroutine, bounded in-flight load queue and worker pool, with
// the whole buffer budget granted to the one table.
type Engine struct {
	srv *Server
}

// New creates an engine over the table file and starts its scheduler and
// load workers. Close must be called to stop them.
func New(tf *TableFile, cfg Config) (*Engine, error) {
	srv, err := NewServer(ServerConfig{
		Policy:            cfg.Policy,
		BufferBytes:       cfg.BufferBytes,
		InFlightDepth:     cfg.InFlightDepth,
		StarveThreshold:   cfg.StarveThreshold,
		ReadBandwidth:     cfg.ReadBandwidth,
		LoadRetries:       cfg.LoadRetries,
		RetryBackoff:      cfg.RetryBackoff,
		MeasureScheduling: cfg.MeasureScheduling,
		Obs:               cfg.Obs,
		Trace:             cfg.Trace,
	}, tf)
	if err != nil {
		return nil, err
	}
	return &Engine{srv: srv}, nil
}

// Scan executes one cooperative scan over the given chunk ranges in the
// calling goroutine, invoking onChunk for every delivered chunk in the
// policy's delivery order (out-of-order for elevator/relevance). cols is
// the scan's projection: on a DSM table only those columns are loaded and
// delivered; on an NSM table the whole chunk is loaded but the projection
// still drives the useful-bytes accounting. It blocks until the scan has
// consumed its whole range and returns the query's statistics (times are
// wall-clock seconds since engine start).
func (e *Engine) Scan(name string, ranges storage.RangeSet, cols storage.ColSet, onChunk func(chunk int, data ChunkData)) (core.Stats, error) {
	return e.srv.Scan(0, name, ranges, cols, onChunk)
}

// ScanContext is Scan under a context: cancellation or a deadline wakes
// even a blocked scan, unregisters its query and returns ctx's error. See
// Server.ScanContext.
func (e *Engine) ScanContext(ctx context.Context, name string, ranges storage.RangeSet, cols storage.ColSet, onChunk func(chunk int, data ChunkData)) (core.Stats, error) {
	return e.srv.ScanContext(ctx, 0, name, ranges, cols, onChunk)
}

// Stats returns the engine's counters at both accounting layers.
func (e *Engine) Stats() SystemStats {
	st := e.srv.Stats()
	return SystemStats{ABM: st.Tables[0].ABM, Pool: st.Pool, Faults: st.Faults}
}

// Server returns the underlying multi-table server, for callers that need
// its full surface (StatusSnapshot, Budgets) on a single-table engine.
func (e *Engine) Server() *Server { return e.srv }

// Close stops the scheduler and workers and releases all chunk views.
// Outstanding Scans are woken and return ErrClosed.
func (e *Engine) Close() error { return e.srv.Close() }

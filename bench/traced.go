package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// runTraced produces the per-layer metrics. The window is split in two
// halves over the same tables and plan: first an untraced reference, then
// the traced pass (metrics registry, MeasureScheduling, timing reader, spans
// around every layer call), so the rate lost to tracing is measured and
// reported rather than assumed. The reference half, which also gives the
// normalised latency, is preceded by the standalone baselines; the
// single-threaded probes follow the traced half.
func runTraced(cfg runConfig, dir string) (*result, error) {
	tb, err := createTables(cfg.spec, filepath.Join(dir, "tables"))
	if err != nil {
		return nil, err
	}
	half := cfg.window / 2

	ref, err := tb.start(nil)
	if err != nil {
		return nil, err
	}
	solo, err := ref.measureSolo()
	if err != nil {
		ref.stop()
		return nil, err
	}
	refWin := ref.runWindow(cfg.seed, cfg.warmup, half, nil)
	if err := ref.stop(); err != nil {
		return nil, err
	}

	tr := newTracer(cfg.spec.streams)
	sys, err := tb.start(tr)
	if err != nil {
		return nil, err
	}
	win := sys.runWindow(cfg.seed, cfg.warmup, half, tr)
	if err := sys.stop(); err != nil {
		return nil, err
	}
	win.wrong += refWin.wrong
	if win.firstErr == nil {
		win.firstErr = refWin.firstErr
	}
	if len(win.recs) == 0 || win.before == nil || win.after == nil {
		return nil, errors.Join(errNoScans, win.firstErr)
	}

	probes := make(map[string]float64)
	if err := runProbes(tr, tb, probes); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	probes["engine.norm_latency_avg"] = refWin.normLatency(solo)
	probes["obs.trace_overhead_share"] = 1 - ratio(win.chunkRate(), refWin.chunkRate())
	values := sys.layerMetrics(win, probes)

	spans := filepath.Join(cfg.workDir, "trace-"+cfg.spec.name+".json")
	if err := tr.write(spans, cfg.spec.name); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "bench: spans written to", spans)
	return newResult(win, cfg.man.PerLayer, values)
}

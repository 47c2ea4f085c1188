package soak

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/iofault"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// EngineConfig parameterises one RunEngine soak.
type EngineConfig struct {
	// Seed selects the table contents, fault sequences and stream shapes.
	Seed uint64
	// Policy is the server's scheduling policy.
	Policy core.Policy
	// Streams is the number of concurrent scan streams (default 12).
	Streams int
	// Rows is the per-table row count (default 16_000 — 16 chunks at 1000
	// tuples per chunk).
	Rows int64
	// NoFaults disables the iofault injector (faults are on by default: a
	// soak that never retries is not soaking much).
	NoFaults bool
}

// EngineReport summarises what a RunEngine soak exercised.
type EngineReport struct {
	Streams   int
	Cancelled int
	Pruned    int64 // chunks zonemap-pruned out of predicated streams
	Audits    int
	Injected  int64
	Retries   int64
}

// engineStream is one planned scan: its table, range, projection, the
// generator-backed golden it must reproduce, and whether it is cancelled
// after its first delivery.
type engineStream struct {
	table  int
	ranges storage.RangeSet
	cols   storage.ColSet
	preds  []engine.PredRange // zonemap-pruning hints; never change the aggregate
	want   exec.Q6Result
	cancel bool
}

// RunEngine executes one seeded engine-layer soak: an NSM table, a raw DSM
// table and a compressed DSM table — all fault-injected, so corrupted
// compressed extents must heal through CRC-verified retries — under one
// server, concurrent streams with random ranges — some cancelled mid-scan,
// some registering Q6 predicate ranges that zonemap-prune their table — a
// background auditor freezing and cross-checking the incremental scheduler
// state while loads retry around it, golden verification of every
// surviving stream, and the drained-state leak and budget audit after
// Close.
func RunEngine(cfg EngineConfig) (EngineReport, error) {
	var rep EngineReport
	if cfg.Streams <= 0 {
		cfg.Streams = 12
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 16_000
	}
	const tpc = 1000
	rng := rand.New(rand.NewSource(int64(cfg.Seed)*2862933555777941757 + 3037000493))

	dir, err := os.MkdirTemp("", "coopscan-soak")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)

	// One NSM, one raw DSM and one compressed DSM table, per-seed contents,
	// generator-backed per-chunk goldens computed before the injector wraps
	// the reader.
	specs := []struct {
		format     engine.Format
		compressed bool
	}{{engine.NSM, false}, {engine.DSM, false}, {engine.DSM, true}}
	tfs := make([]*engine.TableFile, len(specs))
	goldens := make([][]exec.Q6Result, len(specs))
	injectors := make([]*iofault.Injector, len(specs))
	var budget int64
	for i, spec := range specs {
		seed := cfg.Seed + uint64(i)*101
		path := filepath.Join(dir, fmt.Sprintf("t%d.tbl", i))
		var tf *engine.TableFile
		var err error
		if spec.compressed {
			tf, err = engine.CreateCompressed(path, cfg.Rows, tpc, seed)
		} else {
			tf, err = engine.CreateFormat(path, spec.format, cfg.Rows, tpc, seed)
		}
		if err != nil {
			return rep, err
		}
		defer tf.Close()
		tfs[i] = tf
		budget += 4 * tf.ChunkBytes()

		table := tpch.LineitemTable(1)
		table.Rows = cfg.Rows
		gen := tpch.NewGenerator(table, seed)
		pred := exec.DefaultQ6()
		goldens[i] = make([]exec.Q6Result, tf.NumChunks())
		for c := range goldens[i] {
			goldens[i][c] = exec.Q6Chunk(gen, int64(c)*tpc, tf.Layout().ChunkTuples(c), pred)
		}

		if !cfg.NoFaults {
			plan := iofault.Plan{
				TransientProb: 0.5, TransientMax: 2,
				ShortProb:   0.1,
				CorruptProb: 0.03,
				LatencyProb: 0.03, Latency: 100 * time.Microsecond,
			}
			tf.WrapReader(func(r io.ReaderAt) io.ReaderAt {
				injectors[i] = iofault.New(r, plan, seed*2+7)
				return injectors[i]
			})
		}
	}

	srv, err := engine.NewServer(engine.ServerConfig{
		Policy:      cfg.Policy,
		BufferBytes: budget,
		LoadRetries: 8, RetryBackoff: 50 * time.Microsecond,
	}, tfs...)
	if err != nil {
		return rep, err
	}

	streams := make([]*engineStream, cfg.Streams)
	for s := range streams {
		ti := rng.Intn(len(tfs))
		n := tfs[ti].NumChunks()
		a := rng.Intn(n - 3)
		b := a + 3 + rng.Intn(n-a-2)
		cols := engine.Q6Cols()
		if specs[ti].format == engine.DSM && rng.Intn(3) == 0 {
			cols = cols.Add(rng.Intn(engine.NumCols))
		}
		st := &engineStream{table: ti, ranges: storage.NewRangeSet(storage.Range{Start: a, End: b}), cols: cols}
		st.cancel = rng.Intn(6) == 0
		if !st.cancel {
			for c := a; c < b; c++ {
				st.want.Add(goldens[ti][c])
			}
			if rng.Intn(2) == 0 {
				// Zonemap pruning only removes chunks whose bounds exclude
				// the Q6 filters — chunks that contribute zero — so the
				// fault-free golden over the full range still holds.
				st.preds = engine.Q6Preds(exec.DefaultQ6())
			}
		} else {
			rep.Cancelled++
		}
		streams[s] = st
	}

	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	results := make([]exec.Q6Result, len(streams))
	for i, st := range streams {
		i, st := i, st
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			if st.cancel {
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			_, errs[i] = srv.ScanWith(ctx, engine.ScanRequest{
				Table: st.table, Name: fmt.Sprintf("s%d", i),
				Ranges: st.ranges, Cols: st.cols, Preds: st.preds,
			}, func(c int, d engine.ChunkData) {
				results[i].Add(engine.Q6Chunk(d, exec.DefaultQ6()))
				if st.cancel {
					cancel()
				}
			})
		}()
	}

	// Background auditor: freeze the world and recompute every incremental
	// structure from first principles while loads are read, retried and
	// completed around it — once as the streams start, so a run that pruning
	// cuts to a few milliseconds is still audited, then periodically.
	auditDone := make(chan struct{})
	var auditErr error
	var auditWG sync.WaitGroup
	auditWG.Add(1)
	go func() {
		defer auditWG.Done()
		for {
			rep.Audits++
			if err := srv.AuditTables(); err != nil && auditErr == nil {
				auditErr = err
			}
			select {
			case <-auditDone:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(auditDone)
	auditWG.Wait()

	rep.Streams = len(streams)
	for i, st := range streams {
		if st.cancel {
			if !errors.Is(errs[i], context.Canceled) {
				return rep, fmt.Errorf("soak: stream %d: err = %v, want context.Canceled", i, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			return rep, fmt.Errorf("soak: stream %d: %w", i, errs[i])
		}
		if results[i] != st.want {
			return rep, fmt.Errorf("soak: stream %d: Q6 = %+v, want %+v (fault-free golden)", i, results[i], st.want)
		}
	}
	if auditErr != nil {
		return rep, fmt.Errorf("soak: mid-flight audit: %w", auditErr)
	}

	st := srv.Stats()
	rep.Retries = st.Faults.Retries
	for _, ts := range st.Tables {
		rep.Pruned += ts.ChunksPruned
	}
	if !cfg.NoFaults {
		if st.Faults.QuarantinedParts != 0 {
			return rep, fmt.Errorf("soak: %d parts quarantined under a heal-always fault plan", st.Faults.QuarantinedParts)
		}
		for _, inj := range injectors {
			if inj != nil {
				rep.Injected += inj.Stats().Injected()
			}
		}
	}
	if got := int(st.Faults.CancelledScans); got != rep.Cancelled {
		return rep, fmt.Errorf("soak: CancelledScans = %d, want %d", got, rep.Cancelled)
	}

	if err := srv.Close(); err != nil {
		return rep, fmt.Errorf("soak: Close: %w", err)
	}
	if err := srv.AuditDrained(); err != nil {
		return rep, err
	}
	return rep, nil
}

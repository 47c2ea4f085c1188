package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/exec"
)

// runPolicy builds one engine.Server over the tables, drives the planned
// workload (streams × queries per table, staggered starts; per-table
// workloads seeded seed+table, so a single-table run reproduces the
// historical `live` seeding exactly) to completion, and returns the outcomes
// with the server's final /statusz snapshot. faulty says a fault plan is
// active. It is the one runner behind both the live and multi subcommands.
func runPolicy(o *liveOpts, tfs []*engine.TableFile, pol core.Policy, faulty bool, rig *obsRig) (*runResult, error) {
	cfg := o.server.config(pol)
	cfg.MeasureScheduling = o.measureSched
	cfg.Obs = rig.registry()
	cfg.Trace = rig.trace()
	srv, err := engine.NewServer(cfg, tfs...)
	if err != nil {
		return nil, err
	}
	rig.setServer(srv)
	defer rig.setServer(nil)
	defer srv.Close()
	res := &runResult{policy: pol, verbose: o.verbose, perTable: make([][]liveOutcome, len(tfs))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	start := time.Now()
	for table := range tfs {
		table := table
		// Each table runs the standard planned workload, seeded per table so
		// streams over different tables are decorrelated.
		plan := engine.PlanWorkload(tfs[table].NumChunks(), o.streams, o.queries, o.table.seed+uint64(table))
		for s := range plan {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(s) * o.stagger)
				for _, q := range plan[s] {
					qStart := time.Now()
					req := engine.ScanRequest{
						Table: table, Name: q.Name, Ranges: q.Ranges, Cols: q.Cols,
					}
					if o.server.prune && !q.Slow {
						// FAST streams run the Q6 kernel; handing its filter
						// ranges to the engine lets zonemaps drop chunks that
						// cannot match before they reach the scheduler.
						req.Preds = engine.Q6Preds(exec.DefaultQ6())
					}
					st, err := srv.ScanWith(context.Background(), req, liveOnChunk(q.Slow))
					mu.Lock()
					if err != nil {
						// Under an active fault plan a quarantined part fails
						// exactly the scans that need it; that is the designed
						// outcome, not a run-aborting error.
						if faulty && errors.Is(err, engine.ErrChunkUnavailable) {
							res.unavailable++
						} else if firstErr == nil {
							firstErr = err
						}
					}
					res.perTable[table] = append(res.perTable[table], liveOutcome{
						name: q.Name, chunks: st.Chunks, latency: time.Since(qStart),
						useful: st.BytesUseful,
					})
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	res.total = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	res.status = srv.StatusSnapshot()
	res.realBytes = res.status.Pool.BytesLoaded
	for _, outs := range res.perTable {
		for _, o := range outs {
			res.usefulBytes += o.useful
		}
	}
	for table := range res.perTable {
		sort.Slice(res.perTable[table], func(i, j int) bool {
			return res.perTable[table][i].name < res.perTable[table][j].name
		})
	}
	return res, nil
}

// liveOnChunk returns the per-chunk execution body: the FAST Q6 kernel, or
// the SLOW Q1 kernel with extra arithmetic.
func liveOnChunk(slow bool) func(int, engine.ChunkData) {
	if slow {
		return func(_ int, d engine.ChunkData) { engine.Q1Chunk(d, 700, 8) }
	}
	pred := exec.DefaultQ6()
	return func(_ int, d engine.ChunkData) { engine.Q6Chunk(d, pred) }
}

func parsePolicies(s string) ([]core.Policy, error) {
	if s == "all" {
		return core.Policies, nil
	}
	for _, p := range core.Policies {
		if p.String() == s {
			return []core.Policy{p}, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q", s)
}

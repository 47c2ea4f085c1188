package core

import (
	"fmt"
	"math/rand"
	"testing"

	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// auditIncrementalState fails the test if ABM.AuditIncremental (audit.go)
// finds any divergence between the incrementally maintained scheduler
// structures and a from-first-principles recomputation. The audit itself is
// exported production code so the live engine's fault soak can run it too.
func auditIncrementalState(t *testing.T, a *ABM, when string) {
	t.Helper()
	if err := a.AuditIncremental(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// groupSums adds the column groups' per-chunk counters up to the table's:
// for each chunk, the registered queries that still need it and how many
// of them are starved and almost starved.
func groupSums(a *ABM) (interested, starved, almost []int) {
	n := a.layout.NumChunks()
	interested, starved, almost = make([]int, n), make([]int, n), make([]int, n)
	for _, g := range a.groups {
		for c := range n {
			interested[c] += g.interested[c]
			starved[c] += g.starved[c]
			almost[c] += g.almost[c]
		}
	}
	return interested, starved, almost
}

// TestNSMHasOneColumnGroup: an NSM chunk is one part whatever a scan
// declares it reads, so scans with Q6's and Q1's projections (the engine's
// Q6Cols and Q1Cols: shipdate, quantity, extendedprice, discount, and Q1
// adds tax, returnflag, linestatus) share one interest group, keyed by the
// empty column set, and the audit holds it against the registry.
func TestNSMHasOneColumnGroup(t *testing.T) {
	q6Cols, q1Cols := storage.Cols(0, 1, 2, 3), storage.Cols(0, 1, 2, 3, 4, 5, 6)
	for _, pol := range Policies {
		t.Run(pol.String(), func(t *testing.T) {
			a, _ := admitFixture(t, pol, false)
			fast, slow := scanOf(a, "q6", 0, 8, q6Cols), scanOf(a, "q1", 2, 6, q1Cols)
			a.Register(fast)
			a.Register(slow)
			if ld := a.IssueLoad(nil); ld != nil {
				ld.Finish()
			}
			auditIncrementalState(t, a, "two projections registered")
			if len(a.groups) != 1 || a.groups[0].cols != 0 || a.groups[0].members != 2 {
				t.Fatalf("NSM holds %d groups, want one of column set 0 with both scans", len(a.groups))
			}
			a.Finish(fast)
			auditIncrementalState(t, a, "q6 finished")
			if len(a.groups) != 1 || a.groups[0].members != 1 {
				t.Fatalf("after one scan left: %d groups, want one with one member", len(a.groups))
			}
			a.Finish(slow)
			auditIncrementalState(t, a, "both finished")
			if len(a.groups) != 0 {
				t.Fatalf("%d groups after every scan left", len(a.groups))
			}
		})
	}
}

// TestIncrementalCountersMatchRecomputation drives randomized workloads
// through every policy and both layouts, auditing the incremental scheduler
// state against a from-scratch recomputation at every chunk delivery and
// after the run drains.
func TestIncrementalCountersMatchRecomputation(t *testing.T) {
	for _, pol := range Policies {
		for _, columnar := range []bool{false, true} {
			for seed := int64(0); seed < 6; seed++ {
				name := fmt.Sprintf("%v/columnar=%v/seed=%d", pol, columnar, seed)
				t.Run(name, func(t *testing.T) {
					runAuditedWorkload(t, pol, seed, columnar)
				})
			}
		}
	}
}

// runAuditedWorkload is runRandomWorkload with a state audit wired into
// every chunk delivery.
func runAuditedWorkload(t *testing.T, policy Policy, seed int64, columnar bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	numChunks := 8 + rng.Intn(32)
	var layout storage.Layout
	if columnar {
		layout = dsmTestLayout(numChunks, 2+rng.Intn(4))
	} else {
		layout = nsmTestLayout(numChunks)
	}
	env := sim.NewEnv()
	d := disk.New(env, disk.Params{Bandwidth: 10 << 20, SeekTime: 2e-3})
	var bufBytes int64
	if columnar {
		bufBytes = layout.ChunkBytes(0, storage.AllCols(layout.Table().NumColumns())) * int64(2+rng.Intn(5))
	} else {
		bufBytes = layout.ChunkBytes(0, 0) * int64(2+rng.Intn(numChunks))
	}
	abm := New(env, d, layout, Config{Policy: policy, BufferBytes: bufBytes})
	cpu := env.NewResource("cpu", 2)

	nQueries := 1 + rng.Intn(5)
	remaining := nQueries
	for i := 0; i < nQueries; i++ {
		name := fmt.Sprintf("q%d", i)
		s := rng.Intn(numChunks)
		e := s + 1 + rng.Intn(numChunks-s)
		rs := storage.NewRangeSet(storage.Range{Start: s, End: e})
		var cols storage.ColSet
		if columnar {
			nc := layout.Table().NumColumns()
			cols = cols.Add(rng.Intn(nc))
			cols = cols.Add(rng.Intn(nc))
		}
		cost := float64(rng.Intn(3)) * 0.01
		delay := float64(rng.Intn(12)) * 0.3
		env.ProcessAt(name, delay, func(p *sim.Proc) {
			q := abm.NewQuery(name, rs, cols)
			RunCScan(p, abm, q, ScanOptions{
				CPU:     cpu,
				Quantum: 0.01,
				Cost:    func(int, int64) float64 { return cost },
				OnChunk: func(c int) { auditIncrementalState(t, abm, fmt.Sprintf("%s chunk %d", name, c)) },
			})
			remaining--
			if remaining == 0 {
				abm.Shutdown()
			}
		})
	}
	if err := env.Run(0); err != nil {
		t.Fatalf("policy %v seed %d: %v", policy, seed, err)
	}
	auditIncrementalState(t, abm, "drained")
	if len(abm.queries) != 0 {
		t.Fatalf("queries leaked after drain: %d", len(abm.queries))
	}
	_, starved, almost := groupSums(abm)
	for c, v := range starved {
		if v != 0 {
			t.Errorf("starved interest in chunk %d = %d after drain", c, v)
		}
	}
	for c, v := range almost {
		if v != 0 {
			t.Errorf("almost-starved interest in chunk %d = %d after drain", c, v)
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// runRandomWorkload builds a random workload from seed and executes it
// under the given policy, returning per-query delivered chunk sets and the
// final ABM for state inspection. It fails the test on any violated
// invariant observed during the run.
func runRandomWorkload(t *testing.T, policy Policy, seed int64, columnar bool) (map[string][]int, *ABM) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	numChunks := 8 + rng.Intn(40)
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
		bufBytes = layout.ChunkBytes(0, storage.AllCols(layout.Table().NumColumns())) * int64(2+rng.Intn(6))
	} else {
		bufBytes = layout.ChunkBytes(0, 0) * int64(2+rng.Intn(numChunks))
	}
	abm := New(env, d, layout, Config{Policy: policy, BufferBytes: bufBytes})
	cpu := env.NewResource("cpu", 2)

	nQueries := 1 + rng.Intn(6)
	delivered := make(map[string][]int)
	expected := make(map[string]storage.RangeSet)
	remaining := nQueries
	for i := 0; i < nQueries; i++ {
		name := fmt.Sprintf("q%d", i)
		// Random single- or multi-range request.
		var ranges []storage.Range
		for r := 0; r <= rng.Intn(3); r++ {
			s := rng.Intn(numChunks)
			e := s + 1 + rng.Intn(numChunks-s)
			ranges = append(ranges, storage.Range{Start: s, End: e})
		}
		rs := storage.NewRangeSet(ranges...)
		expected[name] = rs
		var cols storage.ColSet
		if columnar {
			n := layout.Table().NumColumns()
			cols = cols.Add(rng.Intn(n))
			cols = cols.Add(rng.Intn(n))
		}
		cost := float64(rng.Intn(4)) * 0.01
		delay := float64(rng.Intn(20)) * 0.25
		env.ProcessAt(name, delay, func(p *sim.Proc) {
			q := abm.NewQuery(name, rs, cols)
			RunCScan(p, abm, q, ScanOptions{
				CPU:     cpu,
				Quantum: 0.01,
				Cost:    func(int, int64) float64 { return cost },
				OnChunk: func(c int) { delivered[name] = append(delivered[name], c) },
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
	// Invariant: every needed chunk delivered exactly once per query.
	for name, rs := range expected {
		seen := map[int]int{}
		for _, c := range delivered[name] {
			seen[c]++
		}
		if len(delivered[name]) != rs.Len() {
			t.Fatalf("policy %v seed %d: %s delivered %d chunks, want %d",
				policy, seed, name, len(delivered[name]), rs.Len())
		}
		rs.Each(func(c int) {
			if seen[c] != 1 {
				t.Fatalf("policy %v seed %d: %s saw chunk %d %d times",
					policy, seed, name, c, seen[c])
			}
		})
	}
	return delivered, abm
}

// TestInvariantEveryChunkOnceAllPolicies fuzzes random workloads through
// every policy for both layouts.
func TestInvariantEveryChunkOnceAllPolicies(t *testing.T) {
	for _, pol := range Policies {
		for _, columnar := range []bool{false, true} {
			for seed := int64(0); seed < 12; seed++ {
				runRandomWorkload(t, pol, seed, columnar)
			}
		}
	}
}

// TestInvariantCacheDrainedState checks post-run cache consistency: no
// pins, no loading parts, no assembly marks, byte accounting within
// capacity and matching the page map.
func TestInvariantCacheDrainedState(t *testing.T) {
	for _, pol := range Policies {
		_, abm := runRandomWorkload(t, pol, 99, true)
		for _, pt := range abm.cache.loadedParts() {
			if pt.pins != 0 {
				t.Errorf("%v: part %v still pinned", pol, pt.key)
			}
			if pt.state == partLoading {
				t.Errorf("%v: part %v still loading", pol, pt.key)
			}
		}
		if len(abm.assembling) != 0 {
			t.Errorf("%v: %d assembly marks leaked", pol, len(abm.assembling))
		}
		if abm.cache.usedBytes > abm.cache.capBytes {
			t.Errorf("%v: used %d exceeds capacity %d", pol, abm.cache.usedBytes, abm.cache.capBytes)
		}
		var pageBytes int64
		for range abm.cache.pageRefs {
			pageBytes += abm.cache.pageBytes
		}
		if pageBytes != abm.cache.usedBytes {
			t.Errorf("%v: page map %d bytes != used %d", pol, pageBytes, abm.cache.usedBytes)
		}
		for c, qs := range abm.chunkQueries {
			if n := len(qs); n != 0 {
				t.Errorf("%v: interest count for chunk %d = %d after drain", pol, c, n)
			}
		}
	}
}

// TestInvariantQuickRandomSeeds drives the relevance policy (the most
// complex machinery) through many random seeds via testing/quick.
func TestInvariantQuickRandomSeeds(t *testing.T) {
	f := func(seed int64, columnar bool) bool {
		// Reuse the testing.T-based runner; it fails the test directly.
		runRandomWorkload(t, Relevance, seed%1000, columnar)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSevereBufferPressure injects the pathological configuration that
// motivated the assembly-mark protocol: a buffer barely larger than one
// query's chunk demand, many multi-column scans. Everything must still
// complete (possibly serially).
func TestSevereBufferPressure(t *testing.T) {
	for _, pol := range Policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			layout := dsmTestLayout(12, 4)
			env := sim.NewEnv()
			d := disk.New(env, disk.Params{Bandwidth: 50 << 20, SeekTime: 1e-3})
			// Just above a single chunk's full-column footprint.
			buf := layout.ChunkBytes(0, storage.AllCols(4))*2 + 1<<16
			abm := New(env, d, layout, Config{Policy: pol, BufferBytes: buf})
			cpu := env.NewResource("cpu", 2)
			remaining := 6
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("q%d", i)
				start := i % 4
				env.ProcessAt(name, float64(i)*0.05, func(p *sim.Proc) {
					q := abm.NewQuery(name,
						storage.NewRangeSet(storage.Range{Start: start, End: start + 8}),
						storage.Cols(0, 1, 2, 3))
					st := RunCScan(p, abm, q, ScanOptions{
						CPU: cpu, Quantum: 0.01,
						Cost: func(int, int64) float64 { return 0.02 },
					})
					if st.Chunks != 8 {
						t.Errorf("%s consumed %d chunks", name, st.Chunks)
					}
					remaining--
					if remaining == 0 {
						abm.Shutdown()
					}
				})
			}
			if err := env.Run(0); err != nil {
				t.Fatalf("%v under pressure: %v", pol, err)
			}
		})
	}
}

// TestDiskErrorFreeSubstrateConsistency cross-checks ABM I/O accounting
// against the device under a random workload.
func TestDiskAccountingMatchesABM(t *testing.T) {
	for _, pol := range Policies {
		_, abm := runRandomWorkload(t, pol, 7, false)
		ds := abm.disk.Stats()
		as := abm.Stats()
		if ds.Requests != as.IORequests {
			t.Errorf("%v: disk %d requests, abm %d", pol, ds.Requests, as.IORequests)
		}
		if ds.Bytes != as.BytesRead {
			t.Errorf("%v: disk %d bytes, abm %d", pol, ds.Bytes, as.BytesRead)
		}
	}
}

// TestNoShortQueryPriorityAblationBehaves verifies the ablation flag has
// the predicted direction: with priority disabled, a short query entering
// behind long ones waits longer.
func TestNoShortQueryPriorityAblationBehaves(t *testing.T) {
	run := func(disable bool) float64 {
		layout := nsmTestLayout(40)
		env := sim.NewEnv()
		d := disk.New(env, disk.Params{Bandwidth: 10 << 20, SeekTime: 2e-3})
		abm := New(env, d, layout, Config{
			Policy: Relevance, BufferBytes: 8 << 20, NoShortQueryPriority: disable,
		})
		cpu := env.NewResource("cpu", 2)
		var shortLatency float64
		remaining := 3
		finish := func() {
			remaining--
			if remaining == 0 {
				abm.Shutdown()
			}
		}
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("long%d", i)
			env.Process(name, func(p *sim.Proc) {
				q := abm.NewQuery(name, storage.NewRangeSet(storage.Range{Start: 0, End: 40}), 0)
				RunCScan(p, abm, q, ScanOptions{CPU: cpu, Cost: func(int, int64) float64 { return 0.02 }})
				finish()
			})
		}
		env.ProcessAt("short", 1.0, func(p *sim.Proc) {
			q := abm.NewQuery("short", storage.NewRangeSet(storage.Range{Start: 30, End: 33}), 0)
			st := RunCScan(p, abm, q, ScanOptions{CPU: cpu, Cost: func(int, int64) float64 { return 0.01 }})
			shortLatency = st.Latency()
			finish()
		})
		if err := env.Run(0); err != nil {
			t.Fatal(err)
		}
		return shortLatency
	}
	with, without := run(false), run(true)
	if with > without {
		t.Errorf("short-query latency with priority (%v) should not exceed without (%v)", with, without)
	}
}

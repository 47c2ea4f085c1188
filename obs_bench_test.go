// BenchmarkObsOverhead measures what the observability stack costs the
// hot path: the `coopscan multi -read-mbps 200` workload (two tables, one
// arbitrated budget, 16 streams, 200 MiB/s device model) run dark versus
// run with the full stack on — metrics registry, per-scan pprof labels and
// the scan-timeline tracer. The off/on pair shares table files and plans,
// so ns/op differences are instrumentation cost alone.
//
// TestObsOverheadAB is the enforcement arm (set COOPSCAN_OBS_AB=1 to run):
// it interleaves off/on runs A/B-style so drift (page-cache warmth, CPU
// frequency) hits both sides equally, compares medians, and fails if the
// instrumented median is more than 2% slower. `make bench-obs` records
// both in BENCH_PR7.json.
package coopscan_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/obs"
)

const (
	multiBenchTables  = 2
	multiBenchRows    = 786_432
	multiBenchTPC     = 16_384 // 48 chunks × 896 KiB ≈ 42 MiB per table
	multiBenchStreams = 8      // per table
	multiBenchQueries = 2
	multiBenchSeed    = 1
	multiBenchReadBW  = 200 << 20 // device model: 200 MiB/s per load stream
)

// obsBenchRig is one side of the A/B pair: dark (nil registry and tracer)
// or fully instrumented, with the trace discarded so the comparison charges
// event construction, not disk.
type obsBenchRig struct {
	reg    *obs.Registry
	tracer *obs.Tracer
}

func newObsBenchRig(on bool) obsBenchRig {
	if !on {
		return obsBenchRig{}
	}
	return obsBenchRig{reg: obs.NewRegistry(), tracer: obs.NewTracer(io.Discard)}
}

// runObsWorkload executes one full multi-table policy run and returns its
// wall-clock time.
func runObsWorkload(tb testing.TB, tfs []*engine.TableFile, plans [][][]engine.PlannedQuery, rig obsBenchRig) time.Duration {
	budget := int64(0)
	for _, tf := range tfs {
		budget += 8 * tf.ChunkBytes()
	}
	srv, err := engine.NewServer(engine.ServerConfig{
		Policy:        core.Relevance,
		BufferBytes:   budget,
		InFlightDepth: 4,
		ReadBandwidth: multiBenchReadBW,
		Obs:           rig.reg,
		Trace:         rig.tracer,
	}, tfs...)
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	pred := exec.DefaultQ6()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var scanErr error
	start := time.Now()
	for table := range tfs {
		table := table
		for s := range plans[table] {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(s) * 2 * time.Millisecond)
				for _, q := range plans[table][s] {
					onChunk := func(_ int, d engine.ChunkData) { engine.Q6Chunk(d, pred) }
					if q.Slow {
						onChunk = func(_ int, d engine.ChunkData) { engine.Q1Chunk(d, 700, 8) }
					}
					if _, err := srv.Scan(table, q.Name, q.Ranges, q.Cols, onChunk); err != nil {
						mu.Lock()
						if scanErr == nil {
							scanErr = err
						}
						mu.Unlock()
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	wall := time.Since(start)
	if scanErr != nil {
		tb.Fatal(scanErr)
	}
	return wall
}

// obsBenchSetup creates the shared table files and per-table plans.
func obsBenchSetup(tb testing.TB) ([]*engine.TableFile, [][][]engine.PlannedQuery) {
	tb.Helper()
	tfs := make([]*engine.TableFile, multiBenchTables)
	plans := make([][][]engine.PlannedQuery, multiBenchTables)
	for i := range tfs {
		tf, err := engine.CreateFormat(filepath.Join(tb.TempDir(), fmt.Sprintf("obs%d.tbl", i)),
			engine.NSM, multiBenchRows, multiBenchTPC, multiBenchSeed+uint64(i))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { tf.Close() })
		tfs[i] = tf
		plans[i] = engine.PlanWorkload(tf.NumChunks(), multiBenchStreams, multiBenchQueries,
			multiBenchSeed+uint64(i))
	}
	return tfs, plans
}

func BenchmarkObsOverhead(b *testing.B) {
	tfs, plans := obsBenchSetup(b)
	for _, mode := range []string{"off", "on"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				wall += runObsWorkload(b, tfs, plans, newObsBenchRig(mode == "on"))
			}
			b.ReportMetric(wall.Seconds()/float64(b.N)*1000, "ms-wall/op")
		})
	}
}

// TestObsOverheadAB is the <2% overhead guard. It is opt-in
// (COOPSCAN_OBS_AB=1) because a trustworthy A/B needs an otherwise idle
// machine; CI runs it from the bench-obs make target.
func TestObsOverheadAB(t *testing.T) {
	if os.Getenv("COOPSCAN_OBS_AB") != "1" {
		t.Skip("set COOPSCAN_OBS_AB=1 to run the interleaved overhead guard")
	}
	tfs, plans := obsBenchSetup(t)
	// Warm both paths once (file cache, JIT-ish first-run costs) before
	// timing anything.
	runObsWorkload(t, tfs, plans, newObsBenchRig(false))
	runObsWorkload(t, tfs, plans, newObsBenchRig(true))
	const rounds = 8
	var off, on []time.Duration
	for i := 0; i < rounds; i++ {
		// Alternate which side goes first so per-round drift (GC debt,
		// frequency scaling) cannot systematically favour one of them.
		first := i%2 == 0
		a := runObsWorkload(t, tfs, plans, newObsBenchRig(!first))
		b := runObsWorkload(t, tfs, plans, newObsBenchRig(first))
		if first {
			off, on = append(off, a), append(on, b)
		} else {
			off, on = append(off, b), append(on, a)
		}
	}
	mOff, mOn := median(off), median(on)
	overhead := float64(mOn-mOff) / float64(mOff)
	t.Logf("median off %v, on %v, overhead %+.2f%%", mOff, mOn, overhead*100)
	if overhead >= 0.02 {
		t.Errorf("observability overhead %.2f%% >= 2%% (off %v, on %v)", overhead*100, mOff, mOn)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

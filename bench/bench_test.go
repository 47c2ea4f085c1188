package main

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"coopscan/internal/engine"
	"coopscan/internal/exec"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, used float64
	}{
		{5, 0.95, 0.5},     // too few for anything above the median
		{39, 0.95, 0.5},    // p75 needs 40
		{40, 0.95, 0.75},   // exactly ten beyond p75
		{100, 0.95, 0.9},   // ten beyond p90, five beyond p95
		{199, 0.95, 0.9},   // p95 needs 200
		{200, 0.95, 0.95},  // exactly ten beyond p95
		{5000, 0.95, 0.95}, // never above what was asked for
		{999, 0.99, 0.95},  // p99 needs 1000
		{1000, 0.99, 0.99},
	} {
		if got := supportedPercentile(tc.n, tc.want); got != tc.used {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.used)
		}
	}
	values := make([]float64, 200)
	for i := range values {
		values[i] = float64(200 - i) // unsorted on purpose
	}
	if p50, p95 := medianAndTail(values); p50 != 100 || p95 != 190 {
		t.Errorf("median and p95 of 1..200 = %v, %v, want 100, 190", p50, p95)
	}
}

func TestSubWindowRateIgnoresOneStall(t *testing.T) {
	// 100 chunks per 100 ms tick, except that the third sixth of the window
	// answers nothing (a host stall) and the work lands in the fourth.
	const start, end = int64(2e9), int64(8e9)
	var ticks []tick
	var count int64
	for at := int64(0); at <= end+1e8; at += 1e8 {
		ticks = append(ticks, tick{at: at, count: count})
		switch slot := (at - start) * subWindows / (end - start); {
		case at < start || slot != 2 && slot != 3:
			count += 100
		case slot == 3:
			count += 200
		}
	}
	if got := median(subWindowRates(ticks, start, end)); got != 1000 {
		t.Errorf("median sub-window rate = %v, want 1000 despite the stall", got)
	}
	// A run cut short reports the slices it covers.
	if got := median(subWindowRates(ticks[:len(ticks)/2], start, end)); got != 1000 {
		t.Errorf("rate over a truncated run = %v, want 1000 from the slices it covers", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{5, 1, 4, 2, 3}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1.5, 4.5", q1, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50, 60, 70, 80, 90, 100], n=4) == [27.5, 55.0, 82.5]
	if q1, q3 := quartiles([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); q1 != 27.5 || q3 != 82.5 {
		t.Errorf("quartiles = %v, %v, want 27.5, 82.5", q1, q3)
	}
}

func planPrefix(seed uint64, spec *workloadSpec, scans int) []plannedScan {
	var out []plannedScan
	for s := 0; s < 4; s++ {
		p := newPlanner(seed, s, 48, spec)
		for i := 0; i < scans; i++ {
			out = append(out, p.next())
		}
	}
	return out
}

func TestPlanDeterminism(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		a, b, c := planPrefix(7, spec, 64), planPrefix(7, spec, 64), planPrefix(8, spec, 64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different plans", spec.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", spec.name)
		}
		slow := 0
		for _, sc := range a {
			if sc.start < 0 || sc.end > 48 || sc.chunks() < 1 {
				t.Fatalf("%s: scan %+v outside the table", spec.name, sc)
			}
			if sc.slow {
				slow++
			}
			if spec.shortScans && (sc.chunks() < 3 || sc.chunks() > 8 || sc.slow) {
				t.Fatalf("%s: scan %+v is not a short FAST scan", spec.name, sc)
			}
			if spec.serve && sc.slow != (sc.chunks() > 12) {
				t.Fatalf("%s: scan %+v: class does not follow length", spec.name, sc)
			}
		}
		if !spec.shortScans && slow == 0 {
			t.Errorf("%s: no SLOW scan in %d", spec.name, len(a))
		}
	}
}

// buildDir returns a scratch directory under the checkout's .bench_build,
// where the benchmark itself keeps its files.
func buildDir(t *testing.T) string {
	t.Helper()
	root := filepath.Join("..", ".bench_build")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	tf, err := engine.CreateFormat(filepath.Join(buildDir(t), "small.tbl"), engine.DSM, 8*1024, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	g, err := buildGolden(tf, true)
	if err != nil {
		t.Fatal(err)
	}
	plan := plannedScan{start: 2, end: 6}
	// right answers a FAST scan of the plan the way a correct system would.
	right := func() *outcome {
		o := &outcome{plan: plan, q6: new(exec.Q6Result), q1: make(exec.Q1Result)}
		for c := plan.start; c < plan.end; c++ {
			g.receipt(o, colsQ6, c, g.tuples[c], g.crc[colsQ6][c])
			o.q6.Add(g.q6[c])
			o.q1.Merge(g.q1[c])
		}
		return o
	}
	if err := g.check(right()); err != nil {
		t.Fatalf("correct outcome rejected: %v", err)
	}
	for name, corrupt := range map[string]func(o *outcome){
		"Q6 fold": func(o *outcome) { o.q6.Revenue++ },
		"Q1 fold": func(o *outcome) { o.q1.Merge(g.q1[0]) },
		"receipt CRC": func(o *outcome) {
			o.seen &^= 1 << 3
			o.delivered--
			g.receipt(o, colsQ6, 3, g.tuples[3], g.crc[colsQ6][3]^1)
		},
		"receipt tuples": func(o *outcome) {
			o.seen &^= 1 << 3
			o.delivered--
			g.receipt(o, colsQ6, 3, g.tuples[3]-1, g.crc[colsQ6][3])
		},
		"duplicate chunk": func(o *outcome) { o.deliver(4) },
		"foreign chunk":   func(o *outcome) { o.deliver(7) },
		"missing chunk":   func(o *outcome) { o.seen &^= 1 << 5; o.delivered-- },
	} {
		o := right()
		corrupt(o)
		if err := g.check(o); err == nil {
			t.Errorf("%s: corrupted outcome accepted", name)
		}
	}
	// A pruned chunk may be missing only if it holds no matching tuple.
	o := right()
	o.mayPrune = true
	o.seen &^= 1 << 5
	if err, matches := g.check(o), g.q6[5].Rows > 0; (err != nil) != matches {
		t.Errorf("chunk 5 (%d matching rows) pruned: check returned %v", g.q6[5].Rows, err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// testManifest reads the committed BENCHMARK.json, one directory up.
func testManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := readManifest(filepath.Join("..", manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func TestManifest(t *testing.T) {
	man := testManifest(t) // readManifest has matched the workloads to the program's
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range man.Workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range man.EndToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range man.PerLayer {
		check("per-layer", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestSmoke runs every workload for a one-second window, untraced and
// traced, and checks that each run answers correctly and prints every metric
// BENCHMARK.json names for it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	man := testManifest(t)
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			spec := &workloads[i]
			name, defs := spec.name+"/untraced", man.EndToEnd
			if traced {
				name, defs = spec.name+"/traced", man.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(runConfig{
					man: man, spec: spec, seed: 1, traced: traced,
					window: time.Second, warmup: 300 * time.Millisecond,
					workDir: buildDir(t),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present=%v), want unit %s", d.Name, v, ok, d.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v.Value)
					}
				}
			})
		}
	}
}

func syntheticRecord(man *manifest, sha string, scale map[string]float64, jitter float64, failed int) *record {
	r := &record{Fingerprint: fingerprint{GitSHA: sha}}
	for _, w := range workloads {
		for seed := uint64(1); seed <= 5; seed++ {
			res := result{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metricValue{}}
			for _, m := range man.EndToEnd {
				f := scale[w.name+"/"+m.Name]
				if f == 0 {
					f = 1
				}
				res.Metrics[m.Name] = metricValue{Value: 100 * f * (1 + jitter*(float64(seed)-3)), Unit: m.Unit}
			}
			r.Runs = append(r.Runs, recordRun{Workload: w.name, Seed: seed, Result: res})
		}
	}
	return r
}

func TestCompare(t *testing.T) {
	man := testManifest(t)
	status := func(vs []verdict, workload, metric string) string {
		for _, v := range vs {
			if v.workload == workload && v.metric == metric {
				return v.status
			}
		}
		return "absent"
	}
	base := syntheticRecord(man, "base", nil, 0.01, 0)

	vs, failedUp := compareRecords(man, base, syntheticRecord(man, "same", nil, 0.01, 0))
	for _, v := range vs {
		if v.status != "ok" {
			t.Errorf("identical records: %s/%s is %s", v.workload, v.metric, v.status)
		}
	}
	if failedUp || len(vs) != len(workloads)*len(man.EndToEnd) {
		t.Errorf("identical records: failedUp=%v, %d verdicts", failedUp, len(vs))
	}

	// Throughput is higher-is-better, latency lower-is-better: a drop in one
	// and a rise in the other are both regressions, the reverse is not.
	change := syntheticRecord(man, "change", map[string]float64{
		"nsm-io/scan_chunks_per_s":     0.7,
		"dsmz-cpu/scan_chunks_per_s":   1.3,
		"nsm-io/scan_latency_p50_ms":   1.5,
		"dsmz-cpu/scan_latency_p50_ms": 0.6,
	}, 0.01, 0)
	vs, _ = compareRecords(man, base, change)
	for key, want := range map[[2]string]string{
		{"nsm-io", "scan_chunks_per_s"}:     "REGRESSION",
		{"dsmz-cpu", "scan_chunks_per_s"}:   "ok",
		{"nsm-io", "scan_latency_p50_ms"}:   "REGRESSION",
		{"dsmz-cpu", "scan_latency_p50_ms"}: "ok",
		{"serve-dsmz", "rss_mib"}:           "ok",
	} {
		if got := status(vs, key[0], key[1]); got != want {
			t.Errorf("%s/%s: %s, want %s", key[0], key[1], got, want)
		}
	}

	// A side whose own repeats spread wider than the bound resolves nothing.
	vs, _ = compareRecords(man, base, syntheticRecord(man, "noisy", nil, 0.2, 0))
	if got := status(vs, "nsm-io", "scan_chunks_per_s"); got != "unresolved" {
		t.Errorf("noisy change: %s, want unresolved", got)
	}

	if _, failedUp := compareRecords(man, base, syntheticRecord(man, "wrong", nil, 0.01, 1)); !failedUp {
		t.Error("a record with failed scans did not raise the failed share")
	}

	// Records taken with different windows or parallelism are refused.
	fp := fingerprint{Seconds: 20, GoMaxProcs: 2, NProc: 2}
	if err := sameConditions(fp, fp); err != nil {
		t.Errorf("equal fingerprints refused: %v", err)
	}
	for _, other := range []fingerprint{{Seconds: 10, GoMaxProcs: 2}, {Seconds: 20, GoMaxProcs: 4}} {
		if sameConditions(fp, other) == nil {
			t.Errorf("fingerprints %+v and %+v compared", fp, other)
		}
	}
}

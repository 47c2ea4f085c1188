package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// record is a file of runs of every workload at one commit, written by
// `bench record` and read by `bench compare`.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []recordRun `json:"runs"`
}

// fingerprint says where and at which commit a record was measured.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	GitSHA     string  `json:"git_sha"`
	Seconds    float64 `json:"seconds"`
}

type recordRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// recordRuns is how many untraced runs of each workload a record holds.
const recordRuns = 5

// recordMain runs every workload recordRuns times untraced (consecutive
// seeds) and once traced, one child process per run so memory and CPU are per
// run, and writes the results with the machine's fingerprint.
func recordMain(args []string) int {
	fs := flag.NewFlagSet("bench record", flag.ContinueOnError)
	out := fs.String("out", "", "file to write the record to (required)")
	firstSeed := fs.Uint64("first-seed", 1, "seed of the first untraced run; the others follow")
	if err := fs.Parse(args); err != nil || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: bench record -out FILE [-first-seed N]")
		return 2
	}
	man, err := readManifest(manifestFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sha := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(b))
	}
	// Every run measures for the manifest's run_seconds, so two records of
	// the same BENCHMARK.json have the same window.
	rec := record{Fingerprint: fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GoMaxProcs: min(runtime.NumCPU(), 4),
		Go: runtime.Version(), GitSHA: sha, Seconds: float64(man.RunSeconds),
	}}
	status := 0
	for _, w := range workloads {
		for i := 0; i <= recordRuns; i++ {
			run := recordRun{Workload: w.name, Seed: *firstSeed + uint64(i)}
			if i == recordRuns { // the traced run repeats the first seed
				run.Seed, run.Trace = *firstSeed, 1
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(run.Seed, 10),
				"-trace", strconv.Itoa(run.Trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); jerr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d printed no result: %v\n", w.name, run.Seed, run.Trace, err)
				return 1
			}
			if err != nil {
				status = 1 // a wrong answer: keep recording, fail at the end
			}
			fmt.Fprintf(os.Stderr, "bench: recorded %s seed %d trace %d\n", w.name, run.Seed, run.Trace)
			rec.Runs = append(rec.Runs, run)
		}
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return status
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the benchmark's acceptance measures spread. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// verdict of one (workload, end-to-end metric) comparison.
type verdict struct {
	workload, metric   string
	base, change       float64 // medians
	worse              float64 // share of base by which change is worse (negative: better)
	baseSpread, spread float64
	bound              float64
	status             string // "ok", "unresolved" or "REGRESSION"
}

// sameConditions refuses two records measured with different windows or
// parallelism: their medians differ for reasons no change to the code made.
func sameConditions(base, change fingerprint) error {
	if base.Seconds != change.Seconds || base.GoMaxProcs != change.GoMaxProcs {
		return fmt.Errorf("records are not comparable: base measured %g s windows at GOMAXPROCS %d, change %g s at %d",
			base.Seconds, base.GoMaxProcs, change.Seconds, change.GoMaxProcs)
	}
	return nil
}

// compareRecords applies the manifest's bounds to every pairing of workload
// and end-to-end metric over the untraced runs of two records. A pairing whose
// own repeat spread exceeds the bound on either side is unresolved, not
// unchanged. failedUp reports whether the change failed a larger share of
// its scans than the base.
func compareRecords(man *manifest, base, change *record) (verdicts []verdict, failedUp bool) {
	collect := func(r *record, workload, metric string) (values []float64) {
		for _, run := range r.Runs {
			if run.Workload == workload && run.Trace == 0 {
				values = append(values, run.Result.Metrics[metric].Value)
			}
		}
		return values
	}
	failedShare := func(r *record) float64 {
		var failed, attempted float64
		for _, run := range r.Runs {
			failed += float64(run.Result.Failed)
			attempted += float64(run.Result.Attempted)
		}
		return ratio(failed, attempted)
	}
	for _, w := range workloads {
		for _, m := range man.EndToEnd {
			a, b := collect(base, w.name, m.Name), collect(change, w.name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict{
				workload: w.name, metric: m.Name, bound: m.Bound,
				base: median(a), change: median(b),
				baseSpread: spread(a), spread: spread(b),
				status: "ok",
			}
			v.worse = ratio(v.change-v.base, v.base)
			if m.Better == "higher" {
				v.worse = -v.worse
			}
			switch {
			case v.baseSpread > m.Bound || v.spread > m.Bound:
				v.status = "unresolved"
			case v.worse > m.Bound:
				v.status = "REGRESSION"
			}
			verdicts = append(verdicts, v)
		}
	}
	return verdicts, failedShare(change) > failedShare(base)
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints one row per (workload, end-to-end metric) and exits
// non-zero on a regression or a higher failed share.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CHANGE.json")
		return 2
	}
	man, err := readManifest(manifestFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	base, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	change, err := readRecord(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := sameConditions(base.Fingerprint, change.Fingerprint); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if b, c := base.Fingerprint, change.Fingerprint; b.CPU != c.CPU || b.NProc != c.NProc || b.Go != c.Go {
		fmt.Fprintf(os.Stderr, "bench: warning: base on %q (%d CPUs, %s), change on %q (%d CPUs, %s)\n",
			b.CPU, b.NProc, b.Go, c.CPU, c.NProc, c.Go)
	}
	verdicts, failedUp := compareRecords(man, base, change)
	fmt.Printf("base %s  change %s\n", base.Fingerprint.GitSHA, change.Fingerprint.GitSHA)
	fmt.Printf("%-15s %-20s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "base", "change", "worse", "spr.b", "spr.c", "bound", "verdict")
	status := 0
	for _, v := range verdicts {
		fmt.Printf("%-15s %-20s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
			v.workload, v.metric, v.base, v.change, 100*v.worse, 100*v.baseSpread, 100*v.spread, 100*v.bound, v.status)
		if v.status == "REGRESSION" {
			status = 1
		}
	}
	if failedUp {
		fmt.Println("failed share rose")
		status = 1
	}
	return status
}

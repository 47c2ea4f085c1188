// Command bench is the repository's one benchmark: four fixed workloads over
// the live cooperative-scan engine, measured end to end and layer by layer
// from outside the program. See README.md for the method.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "record":
			os.Exit(recordMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// notes are printed above the metrics, for the reader: sample counts,
	// sub-window rates, set-up times and the like.
	notes []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRepeats is how many times an untraced run sets up, to report the
// median as setup_s: one set-up takes under a second and its time spreads by
// 30 % and more from run to run, which would hide work moved into set-up.
const setupRepeats = 5

type runConfig struct {
	man     *manifest
	spec    *workloadSpec
	seed    uint64
	window  time.Duration
	warmup  time.Duration
	traced  bool
	workDir string
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: nsm-io, dsmz-cpu, resident-fanin or serve-dsmz")
	seed := fs.Uint64("seed", 1, "scan-plan seed (table data seeds are fixed)")
	seconds := fs.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	warmup := fs.Float64("warmup", 2, "warm-up before the window in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	work := fs.String("workdir", ".bench_build", "directory for table files and the span dump (created; inside the checkout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	man, err := readManifest(manifestFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(man.RunSeconds)
	}
	if *seconds <= 0 || *warmup < 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds > 0, -warmup >= 0 and -trace 0 or 1")
		return 2
	}
	// Fixed parallelism, recorded in the output, so a bigger host does not
	// change what the stream counts mean.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg := runConfig{
		man: man, spec: spec, seed: *seed, traced: *trace == 1,
		window:  time.Duration(*seconds * float64(time.Second)),
		warmup:  time.Duration(*warmup * float64(time.Second)),
		workDir: *work,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := man.EndToEnd
	if cfg.traced {
		defs = man.PerLayer
	}
	fmt.Printf("# workload=%s seed=%d window=%s warmup=%s gomaxprocs=%d nproc=%d scans=%d\n",
		spec.name, cfg.seed, cfg.window, cfg.warmup, runtime.GOMAXPROCS(0), runtime.NumCPU(), res.Attempted)
	for _, note := range res.notes {
		fmt.Println("#", note)
	}
	for _, d := range defs {
		fmt.Printf("%-40s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one workload once and returns its result line.
func run(cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.traced {
		return runTraced(cfg, dir)
	}
	return runUntraced(cfg, dir)
}

func runUntraced(cfg runConfig, dir string) (*result, error) {
	var setups []float64
	var sys *system
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			if err := sys.stop(); err != nil {
				return nil, err
			}
			sys.tb.remove()
		}
		start := time.Now()
		tb, err := createTables(cfg.spec, filepath.Join(dir, fmt.Sprint("setup-", i)))
		if err != nil {
			return nil, err
		}
		if sys, err = tb.start(nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Hand the set-ups' garbage back to the OS, so the window's memory is the
	// workload's own.
	debug.FreeOSMemory()
	win := sys.runWindow(cfg.seed, cfg.warmup, cfg.window, nil)
	if err := sys.stop(); err != nil {
		return nil, err
	}
	values, err := endToEndMetrics(win, median(setups))
	if err != nil {
		return nil, errors.Join(err, win.firstErr)
	}
	res, err := newResult(win, cfg.man.EndToEnd, values)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("set-ups_s=%.3f", setups))
	return res, nil
}

// newResult picks the metrics BENCHMARK.json names out of the values a run
// measured; a name the run did not measure is an error.
func newResult(win *windowResult, defs []metricDef, values map[string]float64) (*result, error) {
	res := &result{Attempted: len(win.recs), Metrics: make(map[string]metricValue, len(defs))}
	res.notes = append(res.notes,
		fmt.Sprintf("sub-window_chunks_per_s=%.0f", win.subWindowRates()),
		fmt.Sprintf("tail_percentile=%g over %d scans", supportedPercentile(len(win.recs), tailWant), len(win.recs)))
	for _, r := range win.recs {
		if r.failed {
			res.Failed++
		}
	}
	res.Correct = win.wrong == 0
	if win.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: wrong result:", win.firstErr)
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s names metric %q, which this run does not measure", manifestFile, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

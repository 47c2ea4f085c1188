package experiments

// Decision-identity harness. The scheduling decisions' observable outcomes
// (Loads, IORequests, BytesRead, Evictions) for the Table
// 2/3/4 experiments and the scheduler-scaling sweep are expected to stay
// bit-identical across scheduler refactors. The simulator and the live
// engine run one decision core (core.New and core.NewLive build the same
// state), so the golden pins the code that serves scans.
//
// Two layers of protection:
//
//   - TestDecisionBaselineConformance diffs the current decisions against
//     the checked-in golden baseline (testdata/decision_baseline.txt). It
//     runs on every `go test` and fails on any drift. After an
//     *intentional* scheduling change, regenerate the golden file with
//     -capture (below) and commit it with the change, stating the diff.
//     The file has been re-captured once since it was first recorded: when
//     the per-round rebuilt eviction heap was retired for the incremental
//     one, `table4 ABC,BCD,CDE,DEF relevance` moved from loads=496
//     evict=457 to loads=494 evict=455 (ios and bytes unchanged).
//
//   - TestCaptureDecisionBaseline dumps the same baseline to a file for
//     ad-hoc before/after diffs during development:
//
//     go test ./internal/experiments -run TestCaptureDecisionBaseline -capture=/tmp/before.txt
//     ... change the scheduler ...
//     go test ./internal/experiments -run TestCaptureDecisionBaseline -capture=/tmp/after.txt
//     diff /tmp/before.txt /tmp/after.txt
//
//     Without -capture the capture test skips, so normal runs pay only the
//     conformance diff.
//
//   - testdata/timing_baseline.txt (same pair: -capture-timing=FILE and
//     TestTimingBaselineConformance) pins what the decision golden cannot
//     see: every virtual-time result, at full precision. Average stream
//     time and normalised latency are float sums folded in completion
//     order and total time is the last event's clock, so a refactor that
//     reorders processes, streams' RNG draws or the outcome fold moves a
//     bit here while leaving every load and eviction count alone. The
//     queries= column is an FNV-1a digest of the per-query outcomes in the
//     order Spec.Run reports them.

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coopscan/internal/workload"
)

var (
	captureFile       = flag.String("capture", "", "write decision baseline to this file")
	captureTimingFile = flag.String("capture-timing", "", "write timing baseline to this file")
)

// writeDecisionBaseline dumps the decision-observable outcomes of the
// quick experiment configurations.
func writeDecisionBaseline(w io.Writer) {
	dump := func(tag string, results []workload.Result) {
		for _, r := range results {
			fmt.Fprintf(w, "%s %v loads=%d ios=%d bytes=%d evict=%d\n",
				tag, r.Policy, r.Loads, r.IORequests, r.BytesRead, r.Evictions)
		}
	}
	dump("table2", Table2(QuickTable2()).Results)
	dump("table3", Table3(QuickTable3()).Results)
	for _, row := range Table4(QuickTable4()).Rows {
		fmt.Fprintf(w, "table4 %s %v loads=%d ios=%d bytes=%d evict=%d\n",
			row.Variant, row.Policy, row.Loads, row.IORequests, row.BytesRead, row.Evictions)
	}
	sc := SchedScaling(QuickSchedScaling())
	for _, p := range sc.Points {
		fmt.Fprintf(w, "schedscale q=%d decisions=%d ios=%d evict=%d\n",
			p.Queries, p.Decisions, p.IORequests, p.Evictions)
	}
}

// writeTimingBaseline dumps the virtual-time results of the same quick
// configurations as hex floats (%x is exact).
func writeTimingBaseline(w io.Writer) {
	dump := func(tag string, results []workload.Result) {
		for _, r := range results {
			h := fnv.New64a()
			for _, q := range r.Queries {
				fmt.Fprintf(h, "%d %s %s %x %x %d\n", q.Stream, q.Template.Name(), q.Stats.Query,
					q.Stats.Latency(), q.Normalized, q.Stats.IOs)
			}
			fmt.Fprintf(w, "%s %v stream_t=%x norm_lat=%x total_t=%x cpu=%x queries=%016x\n",
				tag, r.Policy, r.AvgStreamTime, r.AvgNormLatency, r.TotalTime, r.CPUUse, h.Sum64())
		}
	}
	dump("table2", Table2(QuickTable2()).Results)
	dump("table3", Table3(QuickTable3()).Results)
	for _, row := range Table4(QuickTable4()).Rows {
		fmt.Fprintf(w, "table4 %s %v lat=%x sd=%x\n", row.Variant, row.Policy, row.AvgLatency, row.StdDev)
	}
	o := QuickSchedScaling()
	for _, n := range o.Queries {
		dump(fmt.Sprintf("schedscale q=%d", n), []workload.Result{schedScalingSpec(o, n, o.Chunks).Run()})
	}
}

func TestCaptureDecisionBaseline(t *testing.T) {
	if *captureFile == "" && *captureTimingFile == "" {
		t.Skip("pass -capture=FILE / -capture-timing=FILE to record a baseline")
	}
	for _, c := range []struct {
		path  string
		write func(io.Writer)
	}{{*captureFile, writeDecisionBaseline}, {*captureTimingFile, writeTimingBaseline}} {
		if c.path == "" {
			continue
		}
		f, err := os.Create(c.path)
		if err != nil {
			t.Fatal(err)
		}
		c.write(f)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecisionBaselineConformance asserts the simulator's scheduling
// decisions are unchanged relative to the committed golden baseline: the
// SchedulerPolicy extraction (and any future policy refactor) must not
// alter a single load or eviction.
func TestDecisionBaselineConformance(t *testing.T) {
	conform(t, "decision_baseline.txt", writeDecisionBaseline)
}

// TestTimingBaselineConformance asserts the simulator's virtual-time
// results are bit-identical to the committed golden.
func TestTimingBaselineConformance(t *testing.T) {
	conform(t, "timing_baseline.txt", writeTimingBaseline)
}

func conform(t *testing.T, name string, write func(io.Writer)) {
	goldenPath := filepath.Join("testdata", name)
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden baseline: %v", err)
	}
	var got strings.Builder
	write(&got)
	if got.String() == string(golden) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(golden), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
	t.Fatalf("simulator results drifted from %s; if intentional, regenerate with -capture / -capture-timing and commit", goldenPath)
}

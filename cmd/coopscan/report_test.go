package main

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
)

var updateReport = flag.Bool("update", false, "rewrite testdata/report_golden.txt")

// TestRunResultGolden pins the report `coopscan live` and `coopscan multi`
// print per policy run, byte for byte: the one-table line with its folded
// decision counters, the per-table rows of a multi-table run, the optional
// fault / disk / scheduling lines, the verbose per-query rows, and a run that
// read nothing (the zero denominators of usefulFraction, the average and the
// decoded÷stored ratio). After an intended change:
//
//	go test ./cmd/coopscan -run TestRunResultGolden -update
func TestRunResultGolden(t *testing.T) {
	lineitem := engine.TableStats{
		Name: "lineitem-live#0", BudgetBytes: 16 << 20,
		ABM: core.SystemStats{Loads: 92, Evictions: 60, BytesRead: 330 << 20},
	}
	orders := engine.TableStats{
		Name: "lineitem-live#1", BudgetBytes: 8 << 20, DiskBytesRead: 40 << 20, ChunksPruned: 17,
		ABM:        core.SystemStats{Loads: 31, Evictions: 12, BytesRead: 110 << 20},
		SchedNanos: 90_000, SchedCalls: 450,
	}
	outs0 := []liveOutcome{
		{name: "s0-q0", chunks: 46, latency: 812 * time.Millisecond, useful: 48 << 20},
		{name: "s1-q0", chunks: 12, latency: 1234 * time.Millisecond, useful: 12<<20 + 512<<10},
	}
	outs1 := []liveOutcome{{name: "s0-q0", chunks: 9, latency: 301 * time.Millisecond, useful: 900}}
	one := runResult{
		policy: core.Relevance, total: 2 * time.Second, perTable: [][]liveOutcome{outs0},
		status:    engine.Status{ServerStats: engine.ServerStats{Tables: []engine.TableStats{lineitem}}},
		realBytes: 330 << 20, usefulBytes: 60<<20 + 512<<10,
	}
	two := runResult{
		policy: core.Elevator, total: 1500 * time.Millisecond, perTable: [][]liveOutcome{outs0, outs1},
		status: engine.Status{ServerStats: engine.ServerStats{
			Tables: []engine.TableStats{lineitem, orders},
			Faults: engine.FaultStats{Retries: 7, ChecksumErrors: 2, QuarantinedParts: 1, FailedScans: 1, CancelledScans: 3},
		}},
		realBytes: 440 << 20, usefulBytes: 3 << 30, unavailable: 1,
	}
	verbose := func(r runResult) *runResult { r.verbose = true; return &r }
	var sb strings.Builder
	for _, c := range []struct {
		name string
		r    *runResult
	}{
		{"one table, terse", &one},
		{"one table, verbose", verbose(one)},
		{"two tables with faults, stored bytes, pruning and the scheduling meter, terse", &two},
		{"two tables, verbose", verbose(two)},
		{"nothing read, nothing run", &runResult{
			policy: core.Normal, total: time.Second, perTable: [][]liveOutcome{nil},
			status: engine.Status{ServerStats: engine.ServerStats{Tables: []engine.TableStats{{Name: "empty#0", ChunksPruned: 4}}}},
		}},
	} {
		sb.WriteString("== " + c.name + "\n" + c.r.String())
	}
	const path = "testdata/report_golden.txt"
	if *updateReport {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("report differs from %s (-update rewrites it):\n%s", path, got)
	}
}

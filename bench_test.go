// BenchmarkSchedulerScaling is the simulator-side fence on scheduling cost,
// with TestSchedScalingGuardOptIn (sched_guard_test.go, `make bench-sched`) as
// its enforcement arm.
// Every other signal the per-PR benchmarks once carried — policy wall
// times, I/O counts, live throughput — is measured by the one fixed suite
// under bench/ (`make bench-record`, `make bench-compare`).
package coopscan_test

import (
	"testing"

	"coopscan/internal/experiments"
)

// BenchmarkSchedulerScaling measures the relevance scheduler's decision
// cost at high concurrency and fine chunking (the large-scale extension of
// Figure 8), one sub-benchmark per (queries, chunks) point. The points
// table through q512 IS the PR-4 acceptance configuration: the
// sched-ns/decision metric at q256 is the acceptance gauge (≥3× lower than
// the pre-heap linear paths, recorded in BENCH_PR4.json); q64 keeps the
// PR-1..3 records' unbatched stream shape and stays comparable to them.
// q4096/q8192 extend the sweep an order of magnitude for PR 8: with the
// per-query availability heaps and incremental candidate maintenance,
// sched-ns/decision must stay flat from q512 to q8192 (BENCH_PR8.json).
// -benchmem's allocs/op tracks the hot paths' allocation behaviour.
func BenchmarkSchedulerScaling(b *testing.B) {
	quick := experiments.QuickSchedScaling()
	points := []struct {
		name            string
		queries, chunks int
		batch           int
	}{
		{"q64", 64, quick.Chunks, 1},
		{"q256", 256, quick.Chunks, 16},
		{"q512", 512, quick.Chunks, 16},
		{"q4096", 4096, quick.Chunks, 16},
		{"q8192", 8192, quick.Chunks, 16},
		{"q256-chunks1024", 256, 1024, 16},
		{"q256-chunks2048", 256, 2048, 16},
	}
	for _, pt := range points {
		pt := pt
		b.Run(pt.name, func(b *testing.B) {
			opts := quick
			opts.Queries = []int{pt.queries}
			opts.Chunks = pt.chunks
			opts.StreamBatch = pt.batch
			var r *experiments.SchedScalingResult
			for i := 0; i < b.N; i++ {
				r = experiments.SchedScaling(opts)
			}
			last := r.Points[len(r.Points)-1]
			b.ReportMetric(last.PerDecision, "sched-ns/decision")
			b.ReportMetric(float64(last.Decisions), "decisions")
			b.ReportMetric(float64(last.IORequests), "ios")
		})
	}
}

package engine

import (
	"fmt"

	"coopscan/internal/storage"
	"coopscan/internal/workload"
)

// PlannedQuery is one planned live query: a named range scan that is
// either FAST (Q6-style) or SLOW (Q1-style, CPU-heavy), with the column
// projection its kernel reads (4 of NumCols for FAST, 7 for SLOW) — on a
// DSM table, the columns are all the I/O the query pays for.
type PlannedQuery struct {
	Name   string
	Ranges storage.RangeSet
	Slow   bool
	Cols   storage.ColSet
}

// PlanWorkload plans the standard live workload deterministically from the
// seed: per stream, random ranges of 10/25/50/100% of the table at random
// offsets, every third query SLOW — the shape of the paper's benchmark
// streams. The cmd/coopscan live and multi subcommands and the root
// package's go-test benchmarks share this planner, so they always run the
// same queries.
func PlanWorkload(numChunks, streams, queriesPerStream int, seed uint64) [][]PlannedQuery {
	percents := []int{10, 25, 50, 100}
	out := make([][]PlannedQuery, streams)
	for s := range out {
		rng := workload.NewRNG(seed*1_000_003 + uint64(s))
		for qi := 0; qi < queriesPerStream; qi++ {
			chunks := numChunks * percents[rng.Intn(len(percents))] / 100
			if chunks < 1 {
				chunks = 1
			}
			start := 0
			if numChunks > chunks {
				start = rng.Intn(numChunks - chunks + 1)
			}
			slow := (s+qi)%3 == 0
			class, cols := "F", Q6Cols()
			if slow {
				class, cols = "S", Q1Cols()
			}
			out[s] = append(out[s], PlannedQuery{
				Name:   fmt.Sprintf("%s#s%dq%d", class, s, qi),
				Ranges: storage.NewRangeSet(storage.Range{Start: start, End: start + chunks}),
				Slow:   slow,
				Cols:   cols,
			})
		}
	}
	return out
}

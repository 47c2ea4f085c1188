package main

import (
	"coopscan/internal/workload"
)

// plannedScan is one scan of a stream's plan: chunks [start, end) of a table.
type plannedScan struct {
	table      int
	start, end int
	// slow selects the SLOW class: every third scan of a stream, except on
	// the serve workload, where scans over more than a quarter of the table
	// are SLOW (batch), and on short-scan workloads, which have none.
	slow bool
}

func (p plannedScan) chunks() int { return p.end - p.start }

// planner generates one stream's endless scan sequence from (seed, stream):
// the engine.PlanWorkload shape — ranges of 10/25/50/100 % of the table at a
// random offset, every third scan SLOW — made lazy because a closed loop over
// a fixed window needs as many scans as the system manages to answer.
//
// Range sizes are dealt from shuffled decks rather than drawn independently,
// so every stream's mix is the same over any deck and a window's result does
// not hinge on how many full-table scans a seed happened to draw.
type planner struct {
	rng       *workload.RNG
	spec      *workloadSpec
	stream    int
	numChunks int
	i         int
	deck      []int // range sizes still to deal, in percent
}

func newPlanner(seed uint64, stream, numChunks int, spec *workloadSpec) *planner {
	return &planner{
		rng:  workload.NewRNG(seed*1_000_003 + uint64(stream)),
		spec: spec, stream: stream, numChunks: numChunks,
	}
}

// rangeDeck is one deck of range sizes in percent of the table. The sizes are
// weighted 2:3:2:1 so that a quarter of the scans lie below the 25 % mode,
// which holds the median, and the full-table mode holds the 95th percentile:
// with equal weights the median would sit exactly on the boundary between two
// modes, where a one-scan shift in the mix moves it by a factor of two.
var rangeDeck = [...]int{10, 10, 25, 25, 25, 50, 50, 100}

func (p *planner) nextPercent() int {
	if len(p.deck) == 0 {
		p.deck = append(p.deck, rangeDeck[:]...)
		for i := len(p.deck) - 1; i > 0; i-- {
			j := p.rng.Intn(i + 1)
			p.deck[i], p.deck[j] = p.deck[j], p.deck[i]
		}
	}
	pct := p.deck[len(p.deck)-1]
	p.deck = p.deck[:len(p.deck)-1]
	return pct
}

func (p *planner) next() plannedScan {
	n := p.numChunks
	var chunks int
	if p.spec.shortScans {
		chunks = 3 + p.rng.Intn(6)
	} else {
		chunks = max(1, n*p.nextPercent()/100)
	}
	start := 0
	if n > chunks {
		start = p.rng.Intn(n - chunks + 1)
	}
	sc := plannedScan{
		// Streams alternate tables, so each table gets half of them.
		table: p.stream % numTables,
		start: start, end: start + chunks,
	}
	switch {
	case p.spec.shortScans:
	case p.spec.serve:
		sc.slow = 4*chunks > n
	default:
		sc.slow = (p.stream+p.i)%3 == 0
	}
	p.i++
	return sc
}

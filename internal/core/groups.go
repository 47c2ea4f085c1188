package core

import "coopscan/internal/storage"

// This file implements the interest index: registered queries grouped by
// the column set they read (queryCols), with per-group, per-chunk counters
// maintained at the events that move them (register, unregister, consume,
// starvation flip). Together with ABM.chunkQueries it is the only record of
// which queries need a chunk. Every NSM query reads the one pseudo-column,
// so an NSM layout has exactly one group and its counters are the table's.
// On DSM, the Figure-11 relevance terms — "starved queries whose columns
// overlap mine", "almost-starved queries needing this chunk", "any
// interested query reading this column" — reduce to a walk over the
// distinct column sets (a handful in any real workload) instead of a walk
// over every registered query. A read with no query at hand sums over the
// groups.

// colGroup aggregates the registered queries sharing one column set.
type colGroup struct {
	cols    storage.ColSet
	members int
	// Per-chunk counts of the members that still need the chunk, and of
	// those that are starved and almost starved.
	interested []int
	starved    []int
	almost     []int
}

// joinGroup finds or creates the group for cols and adds one member.
func (a *ABM) joinGroup(cols storage.ColSet) *colGroup {
	g, ok := a.groupIdx[cols]
	if !ok {
		n := a.layout.NumChunks()
		g = &colGroup{
			cols:       cols,
			interested: make([]int, n),
			starved:    make([]int, n),
			almost:     make([]int, n),
		}
		a.groupIdx[cols] = g
		a.groups = append(a.groups, g)
	}
	g.members++
	return g
}

// leaveGroup drops one member, removing an emptied group so the derived
// reads iterate only live column sets.
func (a *ABM) leaveGroup(g *colGroup) {
	g.members--
	if g.members > 0 {
		return
	}
	delete(a.groupIdx, g.cols)
	for i, o := range a.groups {
		if o == g {
			a.groups = append(a.groups[:i], a.groups[i+1:]...)
			break
		}
	}
}

// starvedOverlap returns the number of starved queries that still need
// chunk c and whose columns overlap cols, together with the union of those
// queries' column sets — the l and Cols(QLS) terms of the paper's DSM
// loadRelevance (Figure 11), read off the group counters.
func (a *ABM) starvedOverlap(c int, cols storage.ColSet) (int, storage.ColSet) {
	n, union := 0, storage.ColSet(0)
	for _, g := range a.groups {
		if g.starved[c] > 0 && g.cols.Overlaps(cols) {
			n += g.starved[c]
			union = union.Union(g.cols)
		}
	}
	return n, union
}

// starvedNeeding returns the number of starved queries that still need
// chunk c.
func (a *ABM) starvedNeeding(c int) int {
	n := 0
	for _, g := range a.groups {
		n += g.starved[c]
	}
	return n
}

// almostNeeding returns the number of almost-starved queries that still
// need chunk c and the union of their column sets — the e and Cols(QAS)
// terms of the DSM keepRelevance (the union is empty on NSM).
func (a *ABM) almostNeeding(c int) (int, storage.ColSet) {
	n, union := 0, storage.ColSet(0)
	for _, g := range a.groups {
		if g.almost[c] > 0 {
			n += g.almost[c]
			union = union.Union(g.cols)
		}
	}
	return n, union
}

// interestedOverlap counts the registered queries that still need chunk c
// and whose columns overlap cols.
func (a *ABM) interestedOverlap(c int, cols storage.ColSet) int {
	n := 0
	for _, g := range a.groups {
		if g.interested[c] > 0 && g.cols.Overlaps(cols) {
			n += g.interested[c]
		}
	}
	return n
}

// colInterested reports whether any registered query that needs chunk c
// reads column col.
func (a *ABM) colInterested(c, col int) bool {
	for _, g := range a.groups {
		if g.interested[c] > 0 && g.cols.Has(col) {
			return true
		}
	}
	return false
}

// neededColsUnion returns the union of the column sets of every query that
// still needs chunk c (the elevator's per-chunk load set).
func (a *ABM) neededColsUnion(c int) storage.ColSet {
	var union storage.ColSet
	for _, g := range a.groups {
		if g.interested[c] > 0 {
			union = union.Union(g.cols)
		}
	}
	return union
}

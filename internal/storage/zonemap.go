package storage

import "math"

// ZoneMap holds per-chunk min/max values for one integer column, the
// "small materialized aggregates" / Netezza-zonemap style metadata the paper
// describes in §2(2). Range predicates are evaluated against it to build
// multi-range scan requests that skip chunks which cannot contain matches.
type ZoneMap struct {
	min, max []int64
}

// NewZoneMap creates a zonemap for n chunks with inverted (empty) bounds.
func NewZoneMap(n int) *ZoneMap {
	zm := &ZoneMap{min: make([]int64, n), max: make([]int64, n)}
	for i := 0; i < n; i++ {
		zm.min[i] = math.MaxInt64
		zm.max[i] = math.MinInt64
	}
	return zm
}

// NumChunks returns the number of chunks the map covers.
func (z *ZoneMap) NumChunks() int { return len(z.min) }

// Observe folds value v of chunk c into the bounds.
func (z *ZoneMap) Observe(c int, v int64) {
	if v < z.min[c] {
		z.min[c] = v
	}
	if v > z.max[c] {
		z.max[c] = v
	}
}

// SetBounds sets the bounds of chunk c directly (for synthetic metadata).
func (z *ZoneMap) SetBounds(c int, lo, hi int64) {
	z.min[c], z.max[c] = lo, hi
}

// Bounds returns the recorded bounds of chunk c.
func (z *ZoneMap) Bounds(c int) (lo, hi int64) { return z.min[c], z.max[c] }

// Zone is what is known of a column's values in one chunk before a value is
// read: they lie in [Lo, Hi] — the chunk's zonemap bounds, or anything wider.
// AnyZone is what a chunk without bounds knows; a chunk nothing was observed
// in has Lo > Hi.
type Zone struct{ Lo, Hi int64 }

var AnyZone = Zone{math.MinInt64, math.MaxInt64}

// Decided is what a zone settles about a range conjunct: the rows the
// conjunct selects are none of the chunk's, all of them, or some — the zero
// value, nothing known.
type Decided uint8

const (
	Some Decided = iota
	None
	All
)

// Decide is the one place bounds meet a predicate: which of the zone's
// values does the inclusive interval [lo, hi] select? Registration pruning
// (Prune) drops the None chunks; the kernels (internal/exec) skip the work a
// None or an All already answers. An empty zone and an inverted interval
// select nothing.
func (z Zone) Decide(lo, hi int64) Decided {
	switch {
	case lo > hi || z.Lo > z.Hi || z.Lo > hi || z.Hi < lo:
		return None
	case lo <= z.Lo && z.Hi <= hi:
		return All
	}
	return Some
}

// Prune returns the chunks whose value range intersects [lo, hi], as a
// normalised RangeSet: the scan plan for a range predicate on this column.
// An inverted interval (lo > hi) is empty and intersects nothing.
func (z *ZoneMap) Prune(lo, hi int64) RangeSet {
	var ranges []Range
	start := -1
	for c := 0; c < len(z.min); c++ {
		hit := Zone{z.min[c], z.max[c]}.Decide(lo, hi) != None
		if hit && start < 0 {
			start = c
		}
		if !hit && start >= 0 {
			ranges = append(ranges, Range{start, c})
			start = -1
		}
	}
	if start >= 0 {
		ranges = append(ranges, Range{start, len(z.min)})
	}
	return NewRangeSet(ranges...)
}

package exec

import (
	"fmt"
	"sort"
)

// OrdersDim is an in-memory dimension table for Cooperative Merge Join: the
// paper's join index stores the physical row-id #order in lineitem, so the
// clustered foreign-key join becomes an array lookup that works for chunks
// delivered in any order (§7.2: "it is enough to switch to a proper position
// in this table ... whenever a chunk in the outer table changes").
type OrdersDim struct {
	// Vals[rowID] is the dimension attribute (e.g. order priority bucket).
	Vals []int64
}

// NewOrdersDim builds a deterministic synthetic orders dimension with one
// row per order key 1..n.
func NewOrdersDim(n int64, seed uint64) *OrdersDim {
	vals := make([]int64, n)
	z := seed
	for i := range vals {
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z ^= z >> 27
		vals[i] = int64(z % 5) // e.g. 5 order-priority buckets
	}
	return &OrdersDim{Vals: vals}
}

// CMJ is a Cooperative Merge Join consumer: it joins out-of-order lineitem
// chunks against the in-memory orders dimension via the join index (the
// order key doubles as the physical row-id) and accumulates a grouped sum
// of the measure per dimension bucket.
type CMJ struct {
	dim    *OrdersDim
	groups map[int64]*Group
}

// NewCMJ creates a join consumer over the dimension.
func NewCMJ(dim *OrdersDim) *CMJ {
	return &CMJ{dim: dim, groups: make(map[int64]*Group)}
}

// ProcessChunk joins one delivered chunk: fkeys are the chunk's order keys
// (1-based row-ids into the dimension), vals the measure.
func (c *CMJ) ProcessChunk(fkeys, vals []int64) {
	if len(fkeys) != len(vals) {
		panic("exec: CMJ input length mismatch")
	}
	for i, fk := range fkeys {
		if fk < 1 || fk > int64(len(c.dim.Vals)) {
			panic(fmt.Sprintf("exec: CMJ foreign key %d out of dimension", fk))
		}
		bucket := c.dim.Vals[fk-1]
		g, ok := c.groups[bucket]
		if !ok {
			g = &Group{Key: bucket}
			c.groups[bucket] = g
		}
		g.Sum += vals[i]
		g.Count++
	}
}

// Result returns the grouped join result sorted by bucket.
func (c *CMJ) Result() []Group {
	out := make([]Group, 0, len(c.groups))
	for _, g := range c.groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

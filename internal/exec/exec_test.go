package exec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"coopscan/internal/tpch"
)

func testGen() *tpch.Generator {
	return tpch.NewGenerator(tpch.LineitemTable(0.01), 7)
}

func TestQ6OrderIndependent(t *testing.T) {
	g := testGen()
	rows := g.Table().Rows
	const chunks = 12
	per := rows / chunks
	pred := DefaultQ6()

	var inOrder Q6Result
	for c := int64(0); c < chunks; c++ {
		inOrder.Add(Q6Chunk(g, c*per, per, pred))
	}
	var shuffled Q6Result
	order := rand.New(rand.NewSource(3)).Perm(chunks)
	for _, c := range order {
		shuffled.Add(Q6Chunk(g, int64(c)*per, per, pred))
	}
	if inOrder != shuffled {
		t.Errorf("Q6 differs across delivery orders: %+v vs %+v", inOrder, shuffled)
	}
	if inOrder.Rows == 0 || inOrder.Revenue == 0 {
		t.Errorf("Q6 selected nothing: %+v", inOrder)
	}
	// Q6 selectivity ≈ year(1/7) × discount(3/11) × qty(23/50) ≈ 1.8%.
	frac := float64(inOrder.Rows) / float64(per*chunks)
	if frac < 0.005 || frac > 0.05 {
		t.Errorf("Q6 selectivity = %.4f, want ~0.018", frac)
	}
}

func TestQ1GroupsAndMerge(t *testing.T) {
	g := testGen()
	rows := g.Table().Rows
	full := Q1Chunk(g, 0, rows, tpch.DateMax-90, 0)
	if len(full) != 6 {
		t.Fatalf("Q1 groups = %d, want 6 (3 flags × 2 statuses)", len(full))
	}
	// Chunked + merged must equal single-pass.
	merged := make(Q1Result)
	const chunks = 7
	per := rows / chunks
	for c := int64(0); c < chunks; c++ {
		n := per
		if c == chunks-1 {
			n = rows - c*per
		}
		merged.Merge(Q1Chunk(g, c*per, n, tpch.DateMax-90, 0))
	}
	if len(merged) != len(full) {
		t.Fatalf("merged groups = %d, want %d", len(merged), len(full))
	}
	for k, want := range full {
		got := merged[k]
		if got == nil || *got != *want {
			t.Errorf("group %v: got %+v want %+v", k, got, want)
		}
	}
	var total int64
	for _, grp := range full {
		total += grp.Count
		if grp.SumDisc > grp.SumBase || grp.SumCharge < grp.SumDisc {
			t.Errorf("group %c%c: inconsistent sums %+v", grp.Flag, grp.Status, grp)
		}
	}
	if total == 0 {
		t.Error("Q1 selected nothing")
	}
}

func TestQ1ExtraArithmeticSameResult(t *testing.T) {
	g := testGen()
	a := Q1Chunk(g, 0, 10000, tpch.DateMax, 0)
	b := Q1Chunk(g, 0, 10000, tpch.DateMax, 25)
	for k, want := range a {
		got := b[k]
		if got == nil || *got != *want {
			t.Errorf("extra arithmetic changed group %v", k)
		}
	}
}

func orderedKeys(n int, maxGroups int, rng *rand.Rand) ([]int64, []int64) {
	keys := make([]int64, n)
	vals := make([]int64, n)
	k := int64(rng.Intn(3))
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			k += 1 + int64(rng.Intn(2))
		}
		if maxGroups > 0 && k > int64(maxGroups) {
			k = int64(maxGroups)
		}
		keys[i] = k
		vals[i] = int64(rng.Intn(100))
	}
	return keys, vals
}

func runOrderedAgg(t *testing.T, keys, vals []int64, numChunks int, order []int) []Group {
	t.Helper()
	var got []Group
	oa := NewOrderedAgg(numChunks, func(g Group) { got = append(got, g) })
	per := len(keys) / numChunks
	for _, c := range order {
		lo := c * per
		hi := lo + per
		if c == numChunks-1 {
			hi = len(keys)
		}
		oa.ProcessChunk(c, keys[lo:hi], vals[lo:hi])
	}
	oa.Finish()
	// Emit order is arbitrary; sort by key for comparison.
	for i := 1; i < len(got); i++ {
		for j := i; j > 0 && got[j].Key < got[j-1].Key; j-- {
			got[j], got[j-1] = got[j-1], got[j]
		}
	}
	return got
}

func TestOrderedAggMatchesHashAggAllOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys, vals := orderedKeys(1000, 0, rng)
	want := HashAggReference(keys, vals)
	const chunks = 8
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 7, 0, 5, 1, 6, 2, 4},
		{0, 2, 4, 6, 1, 3, 5, 7},
	}
	for _, order := range orders {
		got := runOrderedAgg(t, keys, vals, chunks, order)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("order %v: got %d groups, want %d\n%v\nvs\n%v", order, len(got), len(want), got, want)
		}
	}
}

func TestOrderedAggSingleGroupSpansChunks(t *testing.T) {
	// One key across every chunk: the hardest case for border stitching.
	n := 100
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1
	}
	got := runOrderedAgg(t, keys, vals, 5, []int{2, 0, 4, 1, 3})
	if len(got) != 1 || got[0].Count != int64(n) || got[0].Sum != int64(n) {
		t.Errorf("got %v, want one group count=%d", got, n)
	}
}

func TestOrderedAggEarlyEmission(t *testing.T) {
	// Delivering a contiguous prefix must emit its closed groups before
	// Finish (the paper's "ready boundary values ... passed immediately").
	keys := []int64{0, 0, 1, 1, 2, 2, 3, 3}
	vals := []int64{1, 1, 1, 1, 1, 1, 1, 1}
	oa := NewOrderedAgg(4, nil)
	oa.ProcessChunk(0, keys[0:2], vals[0:2]) // key 0 only
	oa.ProcessChunk(1, keys[2:4], vals[2:4]) // key 1 only
	// Chunks 0-1 processed: key 0 is closed (left edge + key-1 mismatch).
	if oa.Emitted() < 1 {
		t.Errorf("emitted %d groups after prefix, want >= 1", oa.Emitted())
	}
	oa.ProcessChunk(2, keys[4:6], vals[4:6])
	oa.ProcessChunk(3, keys[6:8], vals[6:8])
	if got := oa.Finish(); got != 4 {
		t.Errorf("total groups = %d, want 4", got)
	}
}

func TestOrderedAggQuickAgainstHashAgg(t *testing.T) {
	f := func(seed int64, chunkSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		keys, vals := orderedKeys(n, 0, rng)
		numChunks := 1 + int(chunkSeed%9)
		if numChunks > n {
			numChunks = n
		}
		order := rng.Perm(numChunks)
		got := runOrderedAggQuick(keys, vals, numChunks, order)
		want := HashAggReference(keys, vals)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func runOrderedAggQuick(keys, vals []int64, numChunks int, order []int) []Group {
	var got []Group
	oa := NewOrderedAgg(numChunks, func(g Group) { got = append(got, g) })
	per := len(keys) / numChunks
	for _, c := range order {
		lo := c * per
		hi := lo + per
		if c == numChunks-1 {
			hi = len(keys)
		}
		oa.ProcessChunk(c, keys[lo:hi], vals[lo:hi])
	}
	oa.Finish()
	for i := 1; i < len(got); i++ {
		for j := i; j > 0 && got[j].Key < got[j-1].Key; j-- {
			got[j], got[j-1] = got[j-1], got[j]
		}
	}
	return got
}

func TestOrderedAggEmptyChunks(t *testing.T) {
	var got []Group
	oa := NewOrderedAgg(3, func(g Group) { got = append(got, g) })
	oa.ProcessChunk(0, []int64{5, 5}, []int64{1, 2})
	oa.ProcessChunk(1, nil, nil)
	oa.ProcessChunk(2, []int64{5, 6}, []int64{4, 8})
	oa.Finish()
	if len(got) != 2 {
		t.Fatalf("groups = %v", got)
	}
	// Key 5 spans chunks 0 and 2 across the empty chunk 1.
	for _, g := range got {
		if g.Key == 5 && (g.Sum != 7 || g.Count != 3) {
			t.Errorf("key 5 group = %+v", g)
		}
	}
}

func TestOrderedAggPanics(t *testing.T) {
	oa := NewOrderedAgg(2, nil)
	oa.ProcessChunk(0, []int64{1}, []int64{1})
	for name, f := range map[string]func(){
		"double process":  func() { oa.ProcessChunk(0, []int64{1}, []int64{1}) },
		"out of range":    func() { oa.ProcessChunk(5, nil, nil) },
		"length mismatch": func() { oa.ProcessChunk(1, []int64{1}, nil) },
		"unsorted":        func() { oa.ProcessChunk(1, []int64{3, 1}, []int64{0, 0}) },
		"finish early":    func() { oa.Finish() },
		"zero chunks":     func() { NewOrderedAgg(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCMJOutOfOrderEqualsInOrder(t *testing.T) {
	g := testGen()
	rows := g.Table().Rows
	nOrders := rows/4 + 2
	dim := NewOrdersDim(nOrders, 99)
	const chunks = 10
	per := rows / chunks

	runCMJ := func(order []int) []Group {
		c := NewCMJ(dim)
		keys := make([]int64, per)
		vals := make([]int64, per)
		for _, ch := range order {
			start := int64(ch) * per
			g.Column(tpch.ColOrderKey, start, keys)
			g.Column(tpch.ColQuantity, start, vals)
			c.ProcessChunk(keys, vals)
		}
		return c.Result()
	}
	inOrder := runCMJ([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	outOfOrder := runCMJ([]int{9, 3, 0, 7, 5, 1, 8, 2, 6, 4})
	if !reflect.DeepEqual(inOrder, outOfOrder) {
		t.Errorf("CMJ result depends on delivery order:\n%v\nvs\n%v", inOrder, outOfOrder)
	}
	if len(inOrder) != 5 {
		t.Errorf("buckets = %d, want 5", len(inOrder))
	}
}

func TestCMJPanicsOnBadKey(t *testing.T) {
	dim := NewOrdersDim(10, 1)
	c := NewCMJ(dim)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-dimension key")
		}
	}()
	c.ProcessChunk([]int64{11}, []int64{1})
}

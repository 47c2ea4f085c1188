package core

import (
	"math/rand"
	"sort"
	"testing"
)

type heapItem struct {
	key, id, idx int
}

type heapItemOrder struct{}

func (heapItemOrder) before(x, y *heapItem) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	return x.id < y.id
}

func (heapItemOrder) slot(x *heapItem) *int { return &x.idx }

// TestIndexedHeapRandomOps drives random push / fix / remove / pop sequences
// against a sorted reference: after every operation the shape audit must
// hold (order and exact slots), absent elements must record slot -1, and
// every pop must return the reference minimum. This is the one order/slot
// invariant test for every heap in the package.
func TestIndexedHeapRandomOps(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h indexedHeap[*heapItem, heapItemOrder]
		pool := make([]*heapItem, 64)
		for i := range pool {
			// Few distinct keys, so the id tie-break is exercised.
			pool[i] = &heapItem{key: rng.Intn(8), id: i, idx: -1}
		}
		in := map[*heapItem]bool{}
		refMin := func() *heapItem {
			ref := make([]*heapItem, 0, len(in))
			for x := range in {
				ref = append(ref, x)
			}
			sort.Slice(ref, func(i, j int) bool { return h.ord.before(ref[i], ref[j]) })
			return ref[0]
		}
		for step := 0; step < 2000; step++ {
			x := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(8); {
			case op < 3:
				if got, want := h.push(x), !in[x]; got != want {
					t.Fatalf("seed %d step %d: push(%d) = %v, want %v", seed, step, x.id, got, want)
				}
				in[x] = true
			case op < 5: // re-key, enrolled or not; fix must cope with both
				x.key = rng.Intn(8)
				h.fix(x)
			case op < 6:
				if got, want := h.remove(x), in[x]; got != want {
					t.Fatalf("seed %d step %d: remove(%d) = %v, want %v", seed, step, x.id, got, want)
				}
				delete(in, x)
			case op < 7:
				got, ok := h.pop()
				if ok != (len(in) > 0) {
					t.Fatalf("seed %d step %d: pop ok = %v with %d enrolled", seed, step, ok, len(in))
				}
				if ok {
					if want := refMin(); got != want {
						t.Fatalf("seed %d step %d: pop = %+v, reference minimum %+v", seed, step, *got, *want)
					}
					delete(in, got)
				}
			default: // scramble every key, then rebuild
				for _, y := range h.items {
					y.key = rng.Intn(8)
				}
				h.init()
			}
			if err := h.audit("test"); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if h.len() != len(in) {
				t.Fatalf("seed %d step %d: len = %d, reference %d", seed, step, h.len(), len(in))
			}
			for _, y := range pool {
				if !in[y] && y.idx != -1 {
					t.Fatalf("seed %d step %d: absent item %d records slot %d", seed, step, y.id, y.idx)
				}
			}
			if len(in) > 0 && h.peek() != refMin() {
				t.Fatalf("seed %d step %d: peek is not the reference minimum", seed, step)
			}
		}
	}
}

// TestIndexedHeapOpsDoNotAllocate pins the "no allocation per operation"
// contract on a warmed heap.
func TestIndexedHeapOpsDoNotAllocate(t *testing.T) {
	var h indexedHeap[*heapItem, heapItemOrder]
	items := make([]*heapItem, 128)
	for i := range items {
		items[i] = &heapItem{key: (i * 37) % 128, id: i, idx: -1}
		h.push(items[i])
	}
	allocs := testing.AllocsPerRun(100, func() {
		x, _ := h.pop()
		x.key = (x.key + 61) % 128
		h.push(x)
		y := items[x.key]
		y.key = (y.key + 17) % 128
		h.fix(y)
		h.remove(y)
		h.push(y)
	})
	if allocs != 0 {
		t.Errorf("heap operations allocate %.1f times per round, want 0", allocs)
	}
}

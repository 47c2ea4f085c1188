package core

import "fmt"

// heapOrder fixes a heap's order and where an element keeps its slot: before
// must be a strict total order (pop order is then independent of the
// operation history, which the decision golden relies on), and slot returns
// where x records its position — -1 while it is not in the heap.
type heapOrder[T any] interface {
	before(x, y T) bool
	slot(x T) *int
}

// indexedHeap is a binary min-heap whose elements record their own slot, so
// an element can be removed or re-sited in O(log n) without a search. The
// order is part of the type, so the zero value of a heap with a stateless
// order is ready to use. No operation allocates beyond the amortised growth
// of the backing slice.
type indexedHeap[T any, O heapOrder[T]] struct {
	items []T
	ord   O
}

func (h *indexedHeap[T, O]) len() int { return len(h.items) }

// peek returns the minimum; the heap must not be empty.
func (h *indexedHeap[T, O]) peek() T { return h.items[0] }

// push inserts x and reports whether it did: an element already in the heap
// stays where it is.
func (h *indexedHeap[T, O]) push(x T) bool {
	if *h.ord.slot(x) >= 0 {
		return false
	}
	*h.ord.slot(x) = len(h.items)
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
	return true
}

// pop removes and returns the minimum; ok is false on an empty heap.
func (h *indexedHeap[T, O]) pop() (x T, ok bool) {
	if len(h.items) == 0 {
		return x, false
	}
	x = h.items[0]
	h.remove(x)
	return x, true
}

// remove deletes x and reports whether it was in the heap.
func (h *indexedHeap[T, O]) remove(x T) bool {
	i := *h.ord.slot(x)
	if i < 0 {
		return false
	}
	last := len(h.items) - 1
	moved := h.items[last]
	h.items[i] = moved
	*h.ord.slot(moved) = i
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	*h.ord.slot(x) = -1
	if i < last && !h.down(i) {
		h.up(i)
	}
	return true
}

// fix restores the order around x after its key changed; a no-op for an
// element not in the heap.
func (h *indexedHeap[T, O]) fix(x T) {
	if i := *h.ord.slot(x); i >= 0 && !h.down(i) {
		h.up(i)
	}
}

// init establishes the heap order and the slots over items in O(n), for
// callers that filled items directly or re-keyed every element.
func (h *indexedHeap[T, O]) init() {
	for i, x := range h.items {
		*h.ord.slot(x) = i
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *indexedHeap[T, O]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	*h.ord.slot(h.items[i]), *h.ord.slot(h.items[j]) = i, j
}

func (h *indexedHeap[T, O]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ord.before(h.items[i], h.items[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts slot i towards the leaves and reports whether it moved.
func (h *indexedHeap[T, O]) down(i int) bool {
	moved := false
	for {
		best := 2*i + 1
		if best >= len(h.items) {
			return moved
		}
		if r := best + 1; r < len(h.items) && h.ord.before(h.items[r], h.items[best]) {
			best = r
		}
		if !h.ord.before(h.items[best], h.items[i]) {
			return moved
		}
		h.swap(i, best)
		i = best
		moved = true
	}
}

// audit checks the heap shape: every element at its recorded slot and no
// child before its parent. It is the one order/slot check AuditIncremental
// runs over every heap in the package.
func (h *indexedHeap[T, O]) audit(name string) error {
	for i, x := range h.items {
		if got := *h.ord.slot(x); got != i {
			return fmt.Errorf("core: %s heap slot %d holds an element recording slot %d", name, i, got)
		}
		if i > 0 && h.ord.before(x, h.items[(i-1)/2]) {
			return fmt.Errorf("core: %s heap order violated at slot %d", name, i)
		}
	}
	return nil
}

package bufferpool

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// testReader returns page contents encoding the page id, counting reads.
func testReader(reads *int) Reader {
	return func(id PageID) ([]byte, error) {
		*reads++
		return []byte(fmt.Sprintf("page-%d", id)), nil
	}
}

func TestPinMissLoadsAndHits(t *testing.T) {
	reads := 0
	p := New(4, LRU, testReader(&reads))
	data, err := p.Pin(7)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "page-7" {
		t.Errorf("data = %q", data)
	}
	p.Unpin(7)
	if _, err := p.Pin(7); err != nil {
		t.Fatal(err)
	}
	p.Unpin(7)
	if reads != 1 {
		t.Errorf("reads = %d, want 1 (second pin is a hit)", reads)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	reads := 0
	p := New(2, LRU, testReader(&reads))
	mustPin(t, p, 1)
	p.Unpin(1)
	mustPin(t, p, 2)
	p.Unpin(2)
	mustPin(t, p, 1) // touch 1: page 2 is now least recent
	p.Unpin(1)
	mustPin(t, p, 3) // evicts 2
	p.Unpin(3)
	if !contains(p, 1) || contains(p, 2) || !contains(p, 3) {
		t.Errorf("residency after LRU eviction wrong: 1=%v 2=%v 3=%v",
			contains(p, 1), contains(p, 2), contains(p, 3))
	}
}

func TestPinnedPagesNeverEvicted(t *testing.T) {
	reads := 0
	p := New(2, LRU, testReader(&reads))
	mustPin(t, p, 1) // stays pinned
	mustPin(t, p, 2)
	p.Unpin(2)
	mustPin(t, p, 3) // must evict 2, not pinned 1
	if !contains(p, 1) || contains(p, 2) {
		t.Error("pinned page was evicted")
	}
	if _, err := p.Pin(4); !errors.Is(err, ErrNoFrame) {
		t.Errorf("expected ErrNoFrame with all frames pinned, got %v", err)
	}
}

func TestReadErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	p := New(2, LRU, func(PageID) ([]byte, error) { return nil, boom })
	if _, err := p.Pin(1); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if p.Resident() != 0 {
		t.Error("failed load must not leave a frame behind")
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	p := New(2, LRU, testReader(new(int)))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Unpin(1)
}

func TestPinRangeAndRelease(t *testing.T) {
	reads := 0
	p := New(8, LRU, testReader(&reads))
	v, err := p.PinRange(10, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Pages) != 4 || len(v.Data) != 4 {
		t.Fatalf("view = %+v", v)
	}
	if string(v.Data[2]) != "page-12" {
		t.Errorf("data[2] = %q", v.Data[2])
	}
	// All pinned: filling the rest of the pool must not evict them.
	for id := PageID(100); id < 104; id++ {
		mustPin(t, p, id)
		p.Unpin(id)
	}
	for id := PageID(10); id < 14; id++ {
		if !contains(p, id) {
			t.Errorf("pinned range page %d evicted", id)
		}
	}
	v.Release()
	// Now they are evictable.
	for id := PageID(200); id < 208; id++ {
		mustPin(t, p, id)
		p.Unpin(id)
	}
	if contains(p, 10) {
		t.Error("released range should be evictable")
	}
}

func TestPinRangeFailureUnwinds(t *testing.T) {
	reads := 0
	p := New(2, LRU, testReader(&reads))
	mustPin(t, p, 50) // one frame pinned forever
	if _, err := p.PinRange(0, 2); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("err = %v", err)
	}
	// The one successfully pinned page must have been unpinned again:
	// filling the pool should evict it.
	mustPin(t, p, 60)
	if contains(p, 0) {
		t.Error("partial range pin leaked")
	}
	p.Unpin(60)
	p.Unpin(50)
}

func TestCapacityNeverExceeded(t *testing.T) {
	reads := 0
	p := New(3, LRU, testReader(&reads))
	for i := 0; i < 50; i++ {
		id := PageID(i % 7)
		if _, err := p.Pin(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
		if p.Resident() > 3 {
			t.Fatalf("resident %d > capacity", p.Resident())
		}
	}
	st := p.Stats()
	if st.Hits+st.Misses != 50 {
		t.Errorf("accounting %+v", st)
	}
}

func TestQuickPoolInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		reads := 0
		p := New(4, LRU, testReader(&reads))
		pins := map[PageID]int{}
		for _, op := range ops {
			id := PageID(op % 11)
			if op%3 == 0 && pins[id] > 0 {
				p.Unpin(id)
				pins[id]--
				continue
			}
			// Never exceed 3 concurrent distinct pinned pages so a frame
			// is always available.
			if pins[id] == 0 && distinctPinned(pins) >= 3 {
				continue
			}
			if _, err := p.Pin(id); err != nil {
				return false
			}
			pins[id]++
			if p.Resident() > 4 {
				return false
			}
			if !contains(p, id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func distinctPinned(pins map[PageID]int) int {
	n := 0
	for _, c := range pins {
		if c > 0 {
			n++
		}
	}
	return n
}

func TestReplacementString(t *testing.T) {
	if LRU.String() != "lru" {
		t.Errorf("LRU = %q", LRU.String())
	}
	if Replacement(9).String() == "" {
		t.Error("unknown policy should stringify")
	}
}

// contains reports whether the page is resident (pinned or not).
func contains(p *Pool, id PageID) bool {
	_, ok := p.frames[id]
	return ok
}

func mustPin(t *testing.T, p *Pool, id PageID) {
	t.Helper()
	if _, err := p.Pin(id); err != nil {
		t.Fatalf("Pin(%d): %v", id, err)
	}
}

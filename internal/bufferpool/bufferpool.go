// Package bufferpool is the paper's §7.1 illustration: a classic
// page-granularity buffer manager with pin counts and LRU replacement — the
// "standard buffer manager" of an existing RDBMS — and the ChunkView through
// which an Active Buffer Manager layered on top of one would request a range
// of pages, receive them pinned (at arbitrary frame positions) and free them
// when it evicts the chunk.
//
// Nothing on the live path uses it. The engine has no pre-existing buffer
// manager to accommodate: its ABM is the only residency authority and a
// resident part owns its frame directly (internal/engine/frames.go). The
// package is kept for the bench suite's bufferpool.pin_release_ns probe,
// which compiles against New, PinRange and ChunkView.Release.
package bufferpool

import (
	"errors"
	"fmt"
)

// PageID identifies a page on the underlying store.
type PageID int64

// Replacement selects a victim frame among the unpinned resident pages.
type Replacement int

// LRU is the one supported replacement policy.
const LRU Replacement = iota

func (r Replacement) String() string {
	if r == LRU {
		return "lru"
	}
	return fmt.Sprintf("replacement(%d)", int(r))
}

// ErrNoFrame is returned when every frame is pinned.
var ErrNoFrame = errors.New("bufferpool: all frames pinned")

// Reader loads the contents of a page from the underlying store.
type Reader func(id PageID) ([]byte, error)

// Stats counts pool activity. BytesLoaded sums the sizes of the pages read
// on misses.
type Stats struct {
	Hits        int
	Misses      int
	Evictions   int
	BytesLoaded int64
}

type frame struct {
	data     []byte
	pins     int
	lastUsed int64 // logical tick of last access; unique per frame
}

// Pool is a fixed-capacity page buffer.
type Pool struct {
	capacity int
	read     Reader
	frames   map[PageID]*frame
	tick     int64
	stats    Stats
}

// New creates a pool holding up to capacity pages, loading misses with read.
func New(capacity int, policy Replacement, read Reader) *Pool {
	if capacity < 1 {
		panic("bufferpool: capacity < 1")
	}
	if policy != LRU {
		panic(fmt.Sprintf("bufferpool: unsupported %v", policy))
	}
	if read == nil {
		panic("bufferpool: nil reader")
	}
	return &Pool{capacity: capacity, read: read, frames: make(map[PageID]*frame, capacity)}
}

// Pin returns the page's contents with its pin count incremented, loading
// it (and evicting a victim if the pool is full) on a miss. Callers must
// Unpin exactly once per Pin.
func (p *Pool) Pin(id PageID) ([]byte, error) {
	p.tick++
	if f, ok := p.frames[id]; ok {
		p.stats.Hits++
		f.pins++
		f.lastUsed = p.tick
		return f.data, nil
	}
	p.stats.Misses++
	if len(p.frames) >= p.capacity {
		if err := p.evictOne(); err != nil {
			return nil, err
		}
	}
	data, err := p.read(id)
	if err != nil {
		return nil, fmt.Errorf("bufferpool: load page %d: %w", id, err)
	}
	p.stats.BytesLoaded += int64(len(data))
	p.frames[id] = &frame{data: data, pins: 1, lastUsed: p.tick}
	return data, nil
}

// Unpin releases one pin of the page.
func (p *Pool) Unpin(id PageID) {
	f, ok := p.frames[id]
	if !ok || f.pins <= 0 {
		panic(fmt.Sprintf("bufferpool: Unpin(%d) without pin", id))
	}
	f.pins--
}

// Resident returns the number of resident pages.
func (p *Pool) Resident() int { return len(p.frames) }

// Stats returns a copy of the counters.
func (p *Pool) Stats() Stats { return p.stats }

// evictOne removes the least recently used unpinned page. Ticks are unique,
// so the victim does not depend on map iteration order.
func (p *Pool) evictOne() error {
	victim, oldest := PageID(0), int64(-1)
	for id, f := range p.frames {
		if f.pins == 0 && (oldest < 0 || f.lastUsed < oldest) {
			victim, oldest = id, f.lastUsed
		}
	}
	if oldest < 0 {
		return ErrNoFrame
	}
	delete(p.frames, victim)
	p.stats.Evictions++
	return nil
}

// ChunkView is the §7.1 integration surface: ABM "requests a range of data
// from the underlying manager", receives the pages pinned (wherever they
// sit in the pool), hands them to interested CScans, and releases them when
// it evicts the chunk.
type ChunkView struct {
	pool  *Pool
	Pages []PageID
	Data  [][]byte
}

// PinRange pins every page in [first, last) and returns the view; on any
// failure it releases what it pinned and returns the error.
func (p *Pool) PinRange(first, last PageID) (*ChunkView, error) {
	if last < first {
		panic(fmt.Sprintf("bufferpool: PinRange(%d, %d)", first, last))
	}
	v := &ChunkView{pool: p}
	for id := first; id < last; id++ {
		data, err := p.Pin(id)
		if err != nil {
			v.Release()
			return nil, err
		}
		v.Pages = append(v.Pages, id)
		v.Data = append(v.Data, data)
	}
	return v, nil
}

// Release unpins every page of the view; the pool may then evict them.
func (v *ChunkView) Release() {
	for _, id := range v.Pages {
		v.pool.Unpin(id)
	}
	v.Pages = nil
	v.Data = nil
}

package core

import (
	"fmt"
	"math/bits"
	"slices"

	"coopscan/internal/storage"
)

// partKey identifies a buffered unit: a (chunk, column) pair in DSM, or a
// whole chunk (col == -1) in NSM.
type partKey struct {
	chunk, col int
}

func (k partKey) String() string {
	if k.col < 0 {
		return fmt.Sprintf("c%d", k.chunk)
	}
	return fmt.Sprintf("c%d/col%d", k.chunk, k.col)
}

// before is the victim heaps' deterministic tie-break: chunk, then column.
func (k partKey) before(o partKey) bool {
	if k.chunk != o.chunk {
		return k.chunk < o.chunk
	}
	return k.col < o.col
}

type partState int

const (
	partAbsent partState = iota
	partLoading
	partLoaded
)

// part is the cache's bookkeeping for one buffered unit.
type part struct {
	key       partKey
	state     partState
	pins      int     // hard pins while a query processes the chunk
	lastTouch float64 // last load or consumption, for LRU
	lruIdx    int     // slot in the cache's LRU victim heap, or -1

	// vicIdx/vicScore site the part in the relevance policy's incremental
	// victim heap: vicIdx is the heap slot or -1, vicScore the keepRelevance
	// score the part was last keyed with.
	vicIdx   int
	vicScore float64

	// frame is the holder's buffer for the part's bytes, opaque to the ABM:
	// Load.Finish hands it over, Pin hands it to every query reading the
	// part, the evict hook gets it back. Nil in the simulator.
	frame any
}

// colBit maps a part column to its bit in the per-chunk residency sets. The
// NSM pseudo-column -1 uses bit 0; no clash is possible because a layout is
// either row-wise (only col -1 parts exist) or columnar (only cols >= 0).
func colBit(col int) storage.ColSet {
	if col < 0 {
		return 1
	}
	return storage.ColSet(1) << uint(col)
}

// bufcache is the buffer pool underneath all policies. It accounts space at
// page granularity so DSM chunks whose extents share boundary pages do not
// double-count, and so loading a chunk next to an already-buffered one reads
// fewer cold bytes — the logical-chunk/physical-page mismatch of paper §6.1.
//
// Beyond the per-part map, the cache maintains a per-chunk residency index
// (residentCols, loadingCols) so the scheduling hot path's question "which
// columns of chunk c are resident / in flight?" is an O(1) bit test instead
// of a pool scan.
type bufcache struct {
	layout    storage.Layout
	pageBytes int64
	capBytes  int64
	usedBytes int64
	// pinnedParts counts the parts with at least one pin.
	pinnedParts int

	pageRefs map[int64]int     // device page index -> #loaded parts using it
	parts    map[partKey]*part // all non-absent parts
	loaded   []*part           // stable-order slice of loaded/loading parts

	// Per-chunk incremental residency index.
	residentCols []storage.ColSet // colBit set iff the part is partLoaded
	loadingCols  []storage.ColSet // colBit set iff the part is partLoading

	// lru indexes every partLoaded part by (lastTouch, chunk, col), the LRU
	// eviction order with the scheduler's deterministic tie-break. It is
	// maintained at the events that change a part's recency — finishLoad,
	// pin, unpin, evict — so selecting an LRU victim is a pop instead of a
	// pool scan. part.lruIdx is the part's heap slot (-1 while absent,
	// loading, or temporarily popped during an eviction pass).
	lru indexedHeap[*part, lruOrder]
}

func newBufcache(layout storage.Layout, capBytes int64) *bufcache {
	pageBytes := int64(0)
	if d, ok := layout.(*storage.DSMLayout); ok {
		pageBytes = d.PageBytes()
	} else {
		// NSM: one "page" per chunk; any chunk's size works as the unit.
		pageBytes = layout.ChunkBytes(0, 0)
	}
	if capBytes < pageBytes {
		panic(fmt.Sprintf("core: buffer capacity %d smaller than one page (%d)", capBytes, pageBytes))
	}
	n := layout.NumChunks()
	return &bufcache{
		layout:       layout,
		pageBytes:    pageBytes,
		capBytes:     capBytes,
		pageRefs:     make(map[int64]int),
		parts:        make(map[partKey]*part),
		residentCols: make([]storage.ColSet, n),
		loadingCols:  make([]storage.ColSet, n),
	}
}

// requiredBits maps a query's column set to the residency bits a chunk must
// have for the chunk to count as resident for that query: the NSM pseudo-
// column bit for row-wise layouts, the column bits themselves for DSM.
func (b *bufcache) requiredBits(cols storage.ColSet) storage.ColSet {
	if !b.layout.Columnar() {
		return 1
	}
	return cols
}

// partsInto returns the parts query cols need for chunk c — per-column in
// DSM, a single col==-1 part in NSM — in a caller-provided scratch buffer
// (typically a stack array), so the scheduling hot paths stay
// allocation-free.
func (b *bufcache) partsInto(buf []partKey, cols storage.ColSet, c int) []partKey {
	buf = buf[:0]
	if !b.layout.Columnar() {
		return append(buf, partKey{chunk: c, col: -1})
	}
	for v := uint64(cols); v != 0; v &= v - 1 {
		buf = append(buf, partKey{chunk: c, col: bits.TrailingZeros64(v)})
	}
	return buf
}

// extentOf returns the single disk extent backing a part (allocation-free).
func (b *bufcache) extentOf(k partKey) storage.Extent {
	return b.layout.ExtentOf(k.chunk, k.col)
}

// pageRange returns the device-global page index range of a part.
func (b *bufcache) pageRange(k partKey) (first, last int64) {
	e := b.extentOf(k)
	first = e.Pos / b.pageBytes
	last = (e.Pos + e.Size + b.pageBytes - 1) / b.pageBytes
	return first, last
}

func (b *bufcache) state(k partKey) partState {
	if p, ok := b.parts[k]; ok {
		return p.state
	}
	return partAbsent
}

// chunkLoadedFor reports whether chunk c is fully resident for cols: a
// single bit test against the maintained residency index.
func (b *bufcache) chunkLoadedFor(cols storage.ColSet, c int) bool {
	return b.requiredBits(cols)&^b.residentCols[c] == 0
}

// absentBits returns the required bits of cols that are neither resident
// nor in flight for chunk c (the parts that still need I/O).
func (b *bufcache) absentBits(cols storage.ColSet, c int) storage.ColSet {
	return b.requiredBits(cols) &^ (b.residentCols[c] | b.loadingCols[c])
}

// loadingBits returns the required bits of cols currently being loaded.
func (b *bufcache) loadingBits(cols storage.ColSet, c int) storage.ColSet {
	return b.requiredBits(cols) & b.loadingCols[c]
}

// coldBytes returns how many bytes of the part are not yet buffered.
func (b *bufcache) coldBytes(k partKey) int64 {
	first, last := b.pageRange(k)
	var n int64
	for pg := first; pg < last; pg++ {
		if b.pageRefs[pg] == 0 {
			n += b.pageBytes
		}
	}
	return n
}

// coldRuns returns the contiguous cold page runs of a part as disk extents;
// each run costs one I/O request.
func (b *bufcache) coldRuns(k partKey) []storage.Extent {
	first, last := b.pageRange(k)
	var out []storage.Extent
	runStart := int64(-1)
	for pg := first; pg <= last; pg++ {
		cold := pg < last && b.pageRefs[pg] == 0
		if cold && runStart < 0 {
			runStart = pg
		}
		if !cold && runStart >= 0 {
			out = append(out, storage.Extent{
				Col: k.col, Pos: runStart * b.pageBytes, Size: (pg - runStart) * b.pageBytes,
			})
			runStart = -1
		}
	}
	return out
}

// beginLoad transitions a part to loading; callers must have verified space.
func (b *bufcache) beginLoad(k partKey, now float64) *part {
	if b.state(k) != partAbsent {
		panic(fmt.Sprintf("core: beginLoad(%v) in state %d", k, b.state(k)))
	}
	p := &part{key: k, state: partLoading, lastTouch: now, lruIdx: -1, vicIdx: -1}
	b.parts[k] = p
	b.loaded = append(b.loaded, p)
	b.loadingCols[k.chunk] |= colBit(k.col)
	// Reserve the pages up front so concurrent space checks see the demand.
	first, last := b.pageRange(k)
	for pg := first; pg < last; pg++ {
		if b.pageRefs[pg] == 0 {
			b.usedBytes += b.pageBytes
		}
		b.pageRefs[pg]++
	}
	return p
}

// finishLoad marks a loading part resident.
func (b *bufcache) finishLoad(k partKey, now float64) {
	p := b.parts[k]
	if p == nil || p.state != partLoading {
		panic(fmt.Sprintf("core: finishLoad(%v) not loading", k))
	}
	p.state = partLoaded
	p.lastTouch = now
	b.loadingCols[k.chunk] &^= colBit(k.col)
	b.residentCols[k.chunk] |= colBit(k.col)
	b.lru.push(p)
}

// abortLoad rolls a loading part back to absent — beginLoad's exact
// inverse, for loads whose reads failed. The reservation is released page
// by page exactly as evict does, so the budget a failed load held never
// leaks; the part can be re-proposed and re-loaded later.
func (b *bufcache) abortLoad(k partKey) {
	p := b.parts[k]
	if p == nil || p.state != partLoading {
		panic(fmt.Sprintf("core: abortLoad(%v) not loading", k))
	}
	b.loadingCols[k.chunk] &^= colBit(k.col)
	b.remove(p)
}

// evict removes a loaded, unpinned part and returns the bytes freed.
func (b *bufcache) evict(k partKey) int64 {
	p := b.parts[k]
	if p == nil || p.state != partLoaded || p.pins > 0 {
		panic(fmt.Sprintf("core: evict(%v): not evictable", k))
	}
	b.lru.remove(p)
	b.residentCols[k.chunk] &^= colBit(k.col)
	return b.remove(p)
}

// remove drops a part from the parts map and the loaded slice and releases
// its page references, returning the bytes freed. The slice removal
// preserves order, deliberately not a swap-remove: the relevance policy's
// DSM useless-column eviction pass consumes the slice in load order, so
// reordering it would change which useless parts go first (and break
// decision bit-identity).
func (b *bufcache) remove(p *part) int64 {
	delete(b.parts, p.key)
	if i := slices.Index(b.loaded, p); i >= 0 {
		b.loaded = slices.Delete(b.loaded, i, i+1)
	}
	var freed int64
	first, last := b.pageRange(p.key)
	for pg := first; pg < last; pg++ {
		b.pageRefs[pg]--
		if b.pageRefs[pg] == 0 {
			delete(b.pageRefs, pg)
			b.usedBytes -= b.pageBytes
			freed += b.pageBytes
		}
	}
	return freed
}

// pin is one part's share of a chunk delivery, on one lookup: the part is
// guarded against eviction while the query processes it, its LRU recency is
// refreshed (a buffer hit) and, when frames is non-nil, its frame appended
// for the caller. unpin lifts the guard.
func (b *bufcache) pin(k partKey, now float64, frames []any) []any {
	p := b.parts[k]
	if p == nil || p.state != partLoaded {
		panic(fmt.Sprintf("core: pin(%v): not loaded", k))
	}
	if p.pins == 0 {
		b.pinnedParts++
	}
	p.pins++
	p.lastTouch = now
	b.lru.fix(p)
	if frames != nil {
		frames = append(frames, p.frame)
	}
	return frames
}

func (b *bufcache) unpin(k partKey, now float64) {
	p := b.parts[k]
	if p == nil || p.pins <= 0 {
		panic(fmt.Sprintf("core: unpin(%v): not pinned", k))
	}
	p.pins--
	if p.pins == 0 {
		b.pinnedParts--
	}
	p.lastTouch = now
	b.lru.fix(p)
}

// pinAll pins every part of chunk c a query with cols reads, in column order
// (the one chunk part in NSM); the chunk must be fully resident for cols.
// Allocation-free.
func (b *bufcache) pinAll(cols storage.ColSet, c int, now float64, frames []any) []any {
	if !b.layout.Columnar() {
		return b.pin(partKey{chunk: c, col: -1}, now, frames)
	}
	for v := uint64(cols); v != 0; v &= v - 1 {
		frames = b.pin(partKey{chunk: c, col: bits.TrailingZeros64(v)}, now, frames)
	}
	return frames
}

// unpinAll releases the pins taken by pinAll.
func (b *bufcache) unpinAll(cols storage.ColSet, c int, now float64) {
	if !b.layout.Columnar() {
		b.unpin(partKey{chunk: c, col: -1}, now)
		return
	}
	for v := uint64(cols); v != 0; v &= v - 1 {
		b.unpin(partKey{chunk: c, col: bits.TrailingZeros64(v)}, now)
	}
}

// lruOrder is the LRU eviction order: least-recently-touched first, with
// the scheduler's historical (chunk, col) tie-break for equal touch times
// (virtual-time events commonly coincide in the simulator).
type lruOrder struct{}

func (lruOrder) before(x, y *part) bool {
	if x.lastTouch != y.lastTouch {
		return x.lastTouch < y.lastTouch
	}
	return x.key.before(y.key)
}

func (lruOrder) slot(p *part) *int { return &p.lruIdx }

// free returns the unreserved capacity in bytes. It can be negative after a
// resize below the current usage; every space check compares free() against
// a needed byte count, so a deficit simply forces evictions (or blocks the
// loader) until the pool has drained under the new budget.
func (b *bufcache) free() int64 { return b.capBytes - b.usedBytes }

// used returns the reserved bytes (resident plus loading parts).
func (b *bufcache) used() int64 { return b.usedBytes }

// resize changes the capacity without touching the buffered parts. Shrinking
// below usedBytes is allowed: the pool converges to the new budget through
// the ordinary eviction paths as pins are released.
func (b *bufcache) resize(capBytes int64) {
	if capBytes < b.pageBytes {
		panic(fmt.Sprintf("core: resize to %d bytes, smaller than one page (%d)", capBytes, b.pageBytes))
	}
	b.capBytes = capBytes
}

// loadedParts returns the internal slice of loading/loaded parts in a
// deterministic (insertion/compaction) order; callers must not modify it.
func (b *bufcache) loadedParts() []*part { return b.loaded }

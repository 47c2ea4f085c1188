package engine

// Lock rule: frameAlloc's mu is the innermost lock; callers may hold a
// table's lock and Server.mu. drawFrame, returnFrame and releaseFrames run
// under the table's lock, which guards its framesOut. A frame's own mu is a
// leaf too, taken only by decode inside a delivery, with no engine lock held.

import (
	"sync"
	"sync/atomic"
	"time"

	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// frame is the buffer of one ABM part — an NSM chunk or a DSM column stripe,
// always exactly one TableFile.PartPages run: one contiguous typed column
// vector of the part's decoded size (every part is whole 8-byte words: the
// int64 columns, the four-word comment filler, whole NSM chunks). The load
// path reads straight into it — wordBytes (alias.go) is the byte view pread
// and the checksums take — and the kernels read it as it is. A frame is
// drawn when its part's load is issued (after the load ticket reserved the
// bytes), filled by a load worker holding no lock, handed to the ABM's part
// record when the ticket lands — which hands it to every scan that pins the
// part — and returned when the ABM evicts the part or the load aborts.
// Nothing else holds part bytes, so the ABM's byte accounting is the
// engine's memory.
//
// A coded DSM part lands undecoded: its checked extent, coded bytes long,
// in the tail of vals. The first scan to read it decodes it in place, under
// mu, and sets decoded; every later reader of the residency sees the bit and
// reads vals. Every other part lands decoded.
type frame struct {
	vals []int64
	// crcs memoises ChunkData.ColCRC for this residency: slot j holds the
	// CRC-32 (IEEE) of column j's valid prefix on an NSM chunk frame, slot 0
	// that of the one column a DSM part is; crcValid marks a filled slot.
	// Cleared as the allocator hands the frame to a new load, filled without
	// any lock by whichever scans pinning the part ask first — racing fillers
	// store the same value.
	crcs [NumCols]atomic.Uint64
	// decoded is set once vals holds the part's values: by the load worker
	// for a part that lands decoded, by decode for one that does not. coded
	// is the length of the extent a load left in the tail of vals, written
	// by the load worker before the load lands. mu, a leaf, serialises
	// decode: two 128 KiB decodes racing over the same words would tear
	// them.
	decoded atomic.Bool
	coded   int
	mu      sync.Mutex
}

// crcValid is the filled bit of a frame.crcs slot; the sum is the low word.
const crcValid = 1 << 32

// bytes returns the frame's size: the decoded bytes of its part.
func (f *frame) bytes() int64 { return int64(len(f.vals)) * 8 }

// frameAlloc is the engine's frame allocator: a free list per part size
// (size class), so at steady state — buffer full, every load preceded by an
// eviction of the same class — a load allocates nothing. The lists are plain
// slices, not sync.Pools: frames of a class ever allocated equal the peak
// number of its parts reserved at once, which the buffer budget bounds, and
// the count is deterministic. A class lives while some attached table has
// parts of its size; its free frames are dropped with its last user.
type frameAlloc struct {
	mu      sync.Mutex
	classes map[int64]*frameClass
	// gets counts every draw, allocs the draws that found the free list
	// empty and allocated (coopscan_recycle_{gets,allocs}_total).
	gets, allocs tally
}

type frameClass struct {
	free  []*frame
	users int // part kinds of this size across the attached tables
}

// newFrameAlloc returns an empty allocator exporting its draw counters into
// reg (nil: unexported).
func newFrameAlloc(reg *obs.Registry) *frameAlloc {
	return &frameAlloc{
		classes: make(map[int64]*frameClass),
		gets: tally{c: reg.Counter("coopscan_recycle_gets_total",
			"Frames drawn from the frame allocator (one per part load).")},
		allocs: tally{c: reg.Counter("coopscan_recycle_allocs_total",
			"Frame draws that found the size class's free list empty and allocated.")},
	}
}

// retain registers one more user of each of the given part sizes.
func (a *frameAlloc) retain(sizes []int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, size := range sizes {
		c := a.classes[size]
		if c == nil {
			c = &frameClass{}
			a.classes[size] = c
		}
		c.users++
	}
}

// release is retain's inverse; a class without users is dropped together
// with its free frames.
func (a *frameAlloc) release(sizes []int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, size := range sizes {
		if c := a.classes[size]; c != nil {
			if c.users--; c.users == 0 {
				delete(a.classes, size)
			}
		}
	}
}

// get draws a frame of exactly size bytes from its class's free list,
// allocating when the list is empty. The frame's CRC memo and its decoded
// bit come back clear: what the previous tenant's scans left there describes
// other bytes.
func (a *frameAlloc) get(size int64) *frame {
	a.gets.add(1)
	a.mu.Lock()
	if c := a.classes[size]; c != nil && len(c.free) > 0 {
		f := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		a.mu.Unlock()
		for j := range f.crcs {
			f.crcs[j].Store(0)
		}
		f.decoded.Store(false)
		return f
	}
	a.mu.Unlock()
	a.allocs.add(1)
	if size%8 != 0 {
		panic("engine: a part's size is not whole 8-byte words")
	}
	return &frame{vals: make([]int64, size/8)}
}

// put returns a frame to its class's free list (or to the garbage collector
// when the class has already been dropped).
func (a *frameAlloc) put(f *frame) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c := a.classes[f.bytes()]; c != nil {
		c.free = append(c.free, f)
	}
}

// partBytes returns the decoded size of one part — its frame size and the
// bytes its ABM reservation holds.
func (t *serverTable) partBytes(col int) int64 {
	if col < 0 {
		return t.tf.ChunkBytes()
	}
	return t.tf.ColStripeBytes(col)
}

// eachPart invokes fn for every ABM part a load decision covers: the single
// pseudo-column part in NSM, one part per column in DSM.
func (t *serverTable) eachPart(cols storage.ColSet, fn func(col int)) {
	if t.tf.Format() == NSM {
		fn(-1)
		return
	}
	cols.Each(fn)
}

// partSizes returns the size of every part kind of t: the chunk on NSM, each
// column's stripe on DSM (one entry per column, so sizes repeat).
func (t *serverTable) partSizes() (sizes []int64) {
	t.eachPart(storage.AllCols(NumCols), func(col int) { sizes = append(sizes, t.partBytes(col)) })
	return sizes
}

// drawFrame draws the frame for one part of t whose load is being issued;
// returnFrame gives one back (eviction, abort, detach, shutdown). Together
// they keep t.framesOut, the audited count of frames t holds. Callers hold
// t.mu.
func (s *Server) drawFrame(t *serverTable, col int) *frame {
	t.framesOut++
	return s.frames.get(t.partBytes(col))
}

func (s *Server) returnFrame(t *serverTable, f *frame) {
	t.framesOut--
	s.frames.put(f)
}

// releaseFrames takes the frame off every resident part of t and returns it
// — a table being finalised out of a detach, or any table still attached at
// shutdown. A scan still inside a delivery at shutdown keeps its pinned
// frames' bytes alive by reference; no load can draw them again, because the
// scheduler is already gone. Callers hold t.mu.
func (s *Server) releaseFrames(t *serverTable) {
	t.abm.ReleaseFrames(func(f any) {
		t.countUnread(f.(*frame))
		s.returnFrame(t, f.(*frame))
		s.o.resident.add(-1)
	})
}

// countUnread counts a part leaving residency — evicted, or released by a
// detach or shutdown — with its extent never decoded: a decode no scan
// needed. Callers hold t.mu.
func (t *serverTable) countUnread(f *frame) {
	if !f.decoded.Load() {
		t.decodes.unread.add(1)
	}
}

// decode gives f's part its values, once per residency: the first reader
// decodes the extent the load left in the tail of f.vals, every reader after
// it — and every reader racing it, who waits on f.mu — finds decoded set.
// It reads memory only, never the file, so a scan still inside its delivery
// at a detach or Close decodes safely. Called inside a delivery, with no
// engine lock held.
func (t *serverTable) decode(f *frame) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.decoded.Load() {
		return
	}
	var start time.Time
	if t.o.decompress != nil {
		start = time.Now()
	}
	t.tf.decodeTail(f.vals, f.coded)
	f.decoded.Store(true)
	t.decodes.decoded.add(1)
	if t.o.decompress != nil {
		t.o.decompress.Observe(time.Since(start).Seconds())
	}
}

package engine

import (
	"sync/atomic"

	"coopscan/internal/obs"
)

// frame is the buffer of one ABM part — an NSM chunk or a DSM column stripe,
// always exactly one TableFile.PartPages run: one contiguous typed column
// vector of the part's decoded size (every part is whole 8-byte words: the
// int64 columns, the four-word comment filler, whole NSM chunks). The load
// path reads and decodes straight into it — wordBytes (alias.go) is the byte
// view pread and the checksums take — and the kernels read it as it is. A
// frame is drawn when its part's load is issued (after the load ticket
// reserved the bytes), filled by a load worker outside the server lock,
// handed to the ABM's part record when the ticket lands — which hands it to
// every scan that pins the part — and returned when the ABM evicts the part
// or the load aborts. Nothing else holds part bytes, so the ABM's byte
// accounting is the engine's memory.
type frame struct {
	vals []int64
	// crcs memoises ChunkData.ColCRC for this residency: slot j holds the
	// CRC-32 (IEEE) of column j's valid prefix on an NSM chunk frame, slot 0
	// that of the one column a DSM part is; crcValid marks a filled slot.
	// Cleared when the allocator hands the frame to a new load (under the
	// server mutex), filled without it by whichever scans pinning the part
	// ask first — racing fillers store the same value.
	crcs [NumCols]atomic.Uint64
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
// Guarded by the server mutex.
type frameAlloc struct {
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
func newFrameAlloc(reg *obs.Registry) frameAlloc {
	return frameAlloc{
		classes: make(map[int64]*frameClass),
		gets: tally{c: reg.Counter("coopscan_recycle_gets_total",
			"Frames drawn from the frame allocator (one per part load).")},
		allocs: tally{c: reg.Counter("coopscan_recycle_allocs_total",
			"Frame draws that found the size class's free list empty and allocated.")},
	}
}

// retain registers one more user of each of the given part sizes.
func (a *frameAlloc) retain(sizes []int64) {
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
	for _, size := range sizes {
		if c := a.classes[size]; c != nil {
			if c.users--; c.users == 0 {
				delete(a.classes, size)
			}
		}
	}
}

// get draws a frame of exactly size bytes from its class's free list,
// allocating when the list is empty. The frame's CRC memo comes back clear:
// whatever the previous tenant's scans left there describes other bytes.
func (a *frameAlloc) get(size int64) *frame {
	a.gets.add(1)
	if c := a.classes[size]; c != nil && len(c.free) > 0 {
		f := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		for j := range f.crcs {
			f.crcs[j].Store(0)
		}
		return f
	}
	a.allocs.add(1)
	if size%8 != 0 {
		panic("engine: a part's size is not whole 8-byte words")
	}
	return &frame{vals: make([]int64, size/8)}
}

// put returns a frame to its class's free list (or to the garbage collector
// when the class has already been dropped).
func (a *frameAlloc) put(f *frame) {
	if c := a.classes[f.bytes()]; c != nil {
		c.free = append(c.free, f)
	}
}

// partSizes returns the size of every part kind of a table: the chunk on
// NSM, each column's stripe on DSM (one entry per column, so sizes repeat).
func partSizes(tf *TableFile) []int64 {
	if tf.Format() == NSM {
		return []int64{tf.ChunkBytes()}
	}
	out := make([]int64, NumCols)
	for j := range out {
		out[j] = tf.ColStripeBytes(j)
	}
	return out
}

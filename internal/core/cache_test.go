package core

import (
	"testing"

	"coopscan/internal/colstore/compress"
	"coopscan/internal/storage"
)

func nsmTestLayout(chunks int) *storage.NSMLayout {
	const chunkBytes = 1 << 20
	const tupleBytes = 8
	tab := &storage.Table{
		Name:    "t",
		Columns: []storage.Column{{Name: "a", Type: storage.Int64, BitsPerValue: 64}},
		Rows:    int64(chunks) * (chunkBytes / tupleBytes),
	}
	return storage.NewNSMLayout(tab, chunkBytes, 0)
}

func dsmTestLayout(chunks int, cols int) *storage.DSMLayout {
	columns := make([]storage.Column, cols)
	for i := range columns {
		bits := 64.0
		if i%2 == 1 {
			bits = 8 // alternate narrow compressed columns
		}
		columns[i] = storage.Column{
			Name: string(rune('a' + i)), Type: storage.Int64,
			Compression: compress.PFOR, BitsPerValue: bits,
		}
	}
	tuplesPerChunk := int64(100_000)
	tab := &storage.Table{Name: "d", Columns: columns, Rows: int64(chunks) * tuplesPerChunk}
	return storage.NewDSMLayout(tab, tuplesPerChunk, 1<<16, 0)
}

func TestCacheNSMLoadEvict(t *testing.T) {
	l := nsmTestLayout(8)
	b := newBufcache(l, 3<<20) // 3 chunks
	k0 := partKey{chunk: 0, col: -1}
	if b.state(k0) != partAbsent {
		t.Fatal("new cache should be empty")
	}
	if got := b.coldBytes(k0); got != 1<<20 {
		t.Fatalf("coldBytes = %d", got)
	}
	b.beginLoad(k0, 0)
	if b.state(k0) != partLoading {
		t.Fatal("state should be loading")
	}
	if b.free() != 2<<20 {
		t.Fatalf("free = %d after reservation", b.free())
	}
	b.finishLoad(k0, 1)
	if b.state(k0) != partLoaded {
		t.Fatal("state should be loaded")
	}
	if !b.chunkLoadedFor(0, 0) {
		t.Fatal("chunk 0 should be resident")
	}
	freed := b.evict(k0)
	if freed != 1<<20 || b.free() != 3<<20 {
		t.Fatalf("evict freed %d, free %d", freed, b.free())
	}
	if b.state(k0) != partAbsent {
		t.Fatal("state should be absent after evict")
	}
}

func TestCachePinPreventsEvict(t *testing.T) {
	l := nsmTestLayout(4)
	b := newBufcache(l, 4<<20)
	k := partKey{chunk: 1, col: -1}
	b.beginLoad(k, 0)
	b.finishLoad(k, 0)
	b.pin(k, 0, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("evicting a pinned part should panic")
			}
		}()
		b.evict(k)
	}()
	b.unpin(k, 2)
	if b.parts[k].lastTouch != 2 {
		t.Error("unpin should refresh recency")
	}
	b.evict(k)
}

func TestCacheDSMBoundaryPageSharing(t *testing.T) {
	l := dsmTestLayout(4, 2)
	b := newBufcache(l, 100<<20)
	// The narrow column (col 1, 1 B/tuple): 100 kB per chunk, page 64 kB, so
	// adjacent chunks share a boundary page.
	k0 := partKey{chunk: 0, col: 1}
	k1 := partKey{chunk: 1, col: 1}
	cold0 := b.coldBytes(k0)
	b.beginLoad(k0, 0)
	b.finishLoad(k0, 0)
	cold1 := b.coldBytes(k1)
	full1 := b.extentOf(k1).Size
	if cold1 >= full1 {
		t.Errorf("chunk 1 cold bytes %d should be less than extent %d (shared boundary page)", cold1, full1)
	}
	b.beginLoad(k1, 0)
	b.finishLoad(k1, 0)
	// Evicting chunk 0 must not free the page chunk 1 still references.
	used := b.usedBytes
	b.evict(k0)
	if b.usedBytes != used-cold0+(full1-cold1)-(full1-cold1) && b.usedBytes >= used {
		t.Errorf("used bytes did not drop after evict: %d -> %d", used, b.usedBytes)
	}
	if b.state(k1) != partLoaded {
		t.Error("chunk 1 should remain loaded")
	}
	// Reloading chunk 0 now needs fewer cold bytes (boundary page warm).
	if got := b.coldBytes(k0); got >= cold0 {
		t.Errorf("cold bytes after neighbour load = %d, want < %d", got, cold0)
	}
}

func TestCacheColdRunsSplitAroundWarmPages(t *testing.T) {
	l := dsmTestLayout(8, 2)
	b := newBufcache(l, 100<<20)
	// Warm the middle of col 0 by loading chunk 2, then ask for runs of a
	// part whose extent surrounds... chunks don't surround each other; use
	// adjacent: load chunk 1, runs of chunk 0 should end at chunk 1's first
	// page.
	k1 := partKey{chunk: 1, col: 0}
	b.beginLoad(k1, 0)
	b.finishLoad(k1, 0)
	runs := b.coldRuns(partKey{chunk: 0, col: 0})
	if len(runs) != 1 {
		t.Fatalf("runs = %+v", runs)
	}
	ext := b.extentOf(partKey{chunk: 0, col: 0})
	if runs[0].Pos != ext.Pos {
		t.Errorf("run start %d, want %d", runs[0].Pos, ext.Pos)
	}
	if runs[0].Size >= ext.Size {
		t.Errorf("run should be shorter than extent: %d vs %d", runs[0].Size, ext.Size)
	}
}

func TestCachePartsForNSMvsDSM(t *testing.T) {
	nb := newBufcache(nsmTestLayout(2), 2<<20)
	if parts := nb.partsInto(nil, storage.Cols(0, 1, 2), 1); len(parts) != 1 || parts[0].col != -1 {
		t.Errorf("NSM partsInto = %v", parts)
	}
	db := newBufcache(dsmTestLayout(2, 4), 100<<20)
	parts := db.partsInto(nil, storage.Cols(0, 2), 1)
	if len(parts) != 2 || parts[0].col != 0 || parts[1].col != 2 {
		t.Errorf("DSM partsInto = %v", parts)
	}
}

func TestCachePanicsOnMisuse(t *testing.T) {
	b := newBufcache(nsmTestLayout(2), 2<<20)
	k := partKey{chunk: 0, col: -1}
	for name, f := range map[string]func(){
		"finish before begin": func() { b.finishLoad(k, 0) },
		"evict absent":        func() { b.evict(k) },
		"pin absent":          func() { b.pin(k, 0, nil) },
		"unpin absent":        func() { b.unpin(k, 0) },
		"tiny capacity":       func() { newBufcache(nsmTestLayout(2), 1) },
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
	b.beginLoad(k, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double beginLoad should panic")
			}
		}()
		b.beginLoad(k, 0)
	}()
}

// Package servetest holds what the tests and soak harnesses of the serving
// tier check the front-end against.
package servetest

import (
	"hash/crc32"

	"coopscan/internal/engine"
	"coopscan/internal/storage"
)

// ReferenceChunkCRC is the (chunk, projection) receipt computed straight from
// its definition in docs/SERVING.md: one CRC-32 (IEEE) streamed over the valid
// prefix (Tuples × column width) of each projected column's bytes, ascending
// column order. It was serve.ChunkCRC's body until the front-end started
// assembling receipts from the per-column sums the engine memoises on resident
// parts; it shares no code with that path (no ColCRC, no combine operator),
// which is what makes comparing the two a differential test. Not for
// production use: it re-hashes every byte on every call.
func ReferenceChunkCRC(cols storage.ColSet, d engine.ChunkData) uint32 {
	crc := uint32(0)
	cols.Each(func(col int) {
		valid := d.Tuples() * engine.ColWidth(col)
		crc = crc32.Update(crc, crc32.IEEETable, d.Col(col)[:valid])
	})
	return crc
}

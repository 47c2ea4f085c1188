package engine

import (
	"fmt"
	"math"
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/exec"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// around returns the values on, one below and one above each of vs.
func around(vs ...int64) []int64 {
	var out []int64
	for _, v := range vs {
		out = append(out, v-1, v, v+1)
	}
	return out
}

// TestKernelsDecideFromBounds hands Q6Chunk and Q1Chunk every chunk of a
// date-ordered table (the last one short) in every stored shape, delivered by
// a live server, under predicates whose every bound sits on, one below and
// one above the chunk's own persisted bounds — where a wrong none or a wrong
// all would drop or admit rows — and holds each answer to the scalar kernels
// over the generator. What the bounds should have decided is worked out here
// from the bounds alone and must be what the table's counters say, in
// TableStats and in the registry alike.
func TestKernelsDecideFromBounds(t *testing.T) {
	const tpc, chunks = 1000, 24
	const rows = chunks*tpc - 123
	table := tpch.LineitemTable(1)
	table.Rows = rows
	gen := tpch.NewGenerator(table, 5)
	def := exec.DefaultQ6()
	for _, f := range storedShapes {
		t.Run(f.name, func(t *testing.T) {
			tf := f.create(t, rows, tpc, 5)
			reg := obs.NewRegistry()
			srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 6 * tf.ChunkBytes(), Obs: reg}, tf)
			var want [3]int64 // indexed by storage.Decided
			_, err := srv.Scan(0, "sweep", rangeSet(0, chunks), Q1Cols(), func(c int, d ChunkData) {
				start, n := int64(c)*tpc, tf.Layout().ChunkTuples(c)
				zone := func(col int) (lo, hi int64) {
					lo, hi, ok := d.Bounds(col)
					wantLo, wantHi := int64(math.MaxInt64), int64(math.MinInt64)
					for _, v := range d.Ints(col) {
						wantLo, wantHi = min(wantLo, v), max(wantHi, v)
					}
					if !ok || lo != wantLo || hi != wantHi {
						t.Fatalf("chunk %d col %d: Bounds = [%d, %d] %v, the %d valid rows span [%d, %d]", c, col, lo, hi, ok, n, wantLo, wantHi)
					}
					return lo, hi
				}
				if _, _, ok := d.Bounds(ColComment); ok {
					t.Fatalf("chunk %d: the comment filler reports bounds", c)
				}
				dLo, dHi := zone(ColShipDate)
				cLo, cHi := zone(ColDiscount)
				qLo, qHi := zone(ColQuantity)
				check := func(pred exec.Q6Predicate) {
					got, ref := Q6Chunk(d, pred), exec.Q6Chunk(gen, start, n, pred)
					if got != ref {
						t.Errorf("chunk %d dates [%d, %d] Q6 %+v: %+v, reference %+v", c, dLo, dHi, pred, got, ref)
					}
					switch {
					case pred.DateHi <= pred.DateLo || pred.DateLo > dHi || pred.DateHi <= dLo,
						pred.DiscHi < pred.DiscLo || pred.DiscLo > cHi || pred.DiscHi < cLo,
						pred.MaxQty <= qLo:
						want[storage.None]++
						if ref.Rows != 0 {
							t.Fatalf("chunk %d Q6 %+v: this test expects none and %d rows qualify", c, pred, ref.Rows)
						}
					case pred.DateLo <= dLo && dHi < pred.DateHi:
						want[storage.All]++
					default:
						want[storage.Some]++
					}
				}
				for _, lo := range around(dLo, dHi) {
					for _, hi := range around(dLo, dHi) {
						check(exec.Q6Predicate{DateLo: lo, DateHi: hi, DiscLo: def.DiscLo, DiscHi: def.DiscHi, MaxQty: def.MaxQty})
					}
				}
				// The other two conjuncts' bounds never decide on this schema
				// (both columns are uniform in every chunk) unless the
				// predicate leaves the domain: sweep them across its ends.
				for _, lo := range around(cLo, cHi) {
					for _, hi := range around(cLo, cHi) {
						check(exec.Q6Predicate{DateLo: dLo, DateHi: dHi + 1, DiscLo: lo, DiscHi: hi, MaxQty: def.MaxQty})
					}
				}
				for _, q := range around(qLo, qHi) {
					check(exec.Q6Predicate{DateLo: dLo - 5, DateHi: dHi, DiscLo: def.DiscLo, DiscHi: def.DiscHi, MaxQty: q})
				}
				for _, dateMax := range around(dLo, dHi) {
					got, ref := Q1Chunk(d, dateMax, 2), exec.Q1Chunk(gen, start, n, dateMax, 2)
					if !sameQ1(got, ref) {
						t.Errorf("chunk %d dates [%d, %d] Q1 dateMax %d differs from the reference", c, dLo, dHi, dateMax)
					}
					switch {
					case dateMax < dLo:
						want[storage.None]++
					case dHi <= dateMax:
						want[storage.All]++
					default:
						want[storage.Some]++
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := srv.Stats().Tables[0]
			got := [3]int64{storage.Some: ts.KernelChunksSome, storage.None: ts.KernelChunksNone, storage.All: ts.KernelChunksDateAll}
			if got != want || want[storage.None] == 0 || want[storage.All] == 0 || want[storage.Some] == 0 {
				t.Errorf("kernel chunks decided (some, none, date_all) = %v, the bounds say %v", got, want)
			}
			m := scrapeMetrics(t, reg)
			for decided, label := range map[storage.Decided]string{storage.Some: "some", storage.None: "none", storage.All: "date_all"} {
				key := fmt.Sprintf(`coopscan_kernel_chunks_total{table=%q,decided=%q}`, ts.Name, label)
				if v, ok := m[key]; !ok || int64(v) != want[decided] {
					t.Errorf("%s = %v (present %v), want %d", key, v, ok, want[decided])
				}
			}
			if ts.ChunksPruned != 0 {
				t.Errorf("ChunksPruned = %d: chunks the kernels decided are not registration pruning", ts.ChunksPruned)
			}
		})
	}
}

// TestHandBuiltChunkDataStillAnswers: a ChunkData no table delivered has no
// bounds and no counters; the kernels run every pass over it and answer.
func TestHandBuiltChunkDataStillAnswers(t *testing.T) {
	const rows, tpc = 5_000, 1000
	tf := newTestFile(t, rows, tpc, 9)
	table := tpch.LineitemTable(1)
	table.Rows = rows
	gen := tpch.NewGenerator(table, 9)
	for c := 0; c < tf.NumChunks(); c++ {
		d := readChunkData(t, tf, c)
		if _, _, ok := d.Bounds(ColShipDate); ok {
			t.Fatal("a hand-built ChunkData reports bounds")
		}
		n := tf.Layout().ChunkTuples(c)
		pred := exec.Q6Predicate{DateLo: tpch.DateMin, DateHi: tpch.DateMax + 1, DiscLo: 5, DiscHi: 7, MaxQty: 24}
		if got, ref := Q6Chunk(d, pred), exec.Q6Chunk(gen, int64(c)*tpc, n, pred); got != ref || ref.Rows == 0 {
			t.Errorf("chunk %d Q6: %+v, reference %+v", c, got, ref)
		}
		if got, ref := Q1Chunk(d, -1, 0), exec.Q1Chunk(gen, int64(c)*tpc, n, -1, 0); !sameQ1(got, ref) {
			t.Errorf("chunk %d Q1 below every date differs from the reference", c)
		}
	}
}

// TestDecidedKernelsAllocateNothing: asking the bounds and counting the
// answer add no allocation to a delivery — Q6Chunk allocates nothing on a
// live chunk whatever was decided, Q1Chunk only the empty result of a chunk
// its bounds exclude.
func TestDecidedKernelsAllocateNothing(t *testing.T) {
	const rows, tpc = 24_000, 1000
	tf := newTestFileFormat(t, DSM, rows, tpc, 5)
	srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	pred := exec.DefaultQ6()
	var seen [3]bool
	_, err := srv.Scan(0, "allocs", rangeSet(0, tf.NumChunks()), Q1Cols(), func(c int, d ChunkData) {
		lo, hi, _ := d.Bounds(ColShipDate)
		seen[storage.Zone{Lo: lo, Hi: hi}.Decide(pred.DateLo, pred.DateHi-1)] = true
		if a := testing.AllocsPerRun(5, func() { Q6Chunk(d, pred) }); a != 0 {
			t.Errorf("chunk %d: Q6Chunk allocates %v times per call", c, a)
		}
		if a := testing.AllocsPerRun(5, func() { Q1Chunk(d, lo-1, 0) }); a > 1 {
			t.Errorf("chunk %d: Q1Chunk allocates %v times answering a chunk its bounds exclude", c, a)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != [3]bool{true, true, true} {
		t.Errorf("the table's chunks decided (some, none, all) = %v: want every shape met", seen)
	}
}

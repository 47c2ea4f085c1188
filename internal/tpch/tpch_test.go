package tpch

import (
	"testing"

	"coopscan/internal/storage"
)

func testGen() *Generator {
	return NewGenerator(LineitemTable(0.01), 42) // 60k rows
}

func TestTableShape(t *testing.T) {
	tab := LineitemTable(10)
	if tab.Rows != 60_000_000 {
		t.Errorf("rows = %d", tab.Rows)
	}
	if tab.NumColumns() != NumLineitemCols {
		t.Errorf("columns = %d", tab.NumColumns())
	}
	if i := tab.ColumnIndex("l_shipdate"); i != ColShipDate {
		t.Errorf("l_shipdate index = %d", i)
	}
	// The NSM width should be in the ballpark of real lineitem (~70-140 B).
	w := tab.NSMTupleBytes()
	if w < 60 || w > 200 {
		t.Errorf("NSM tuple width = %v bytes", w)
	}
}

func TestDeterministicAndChunkAddressable(t *testing.T) {
	g := testGen()
	whole := make([]int64, 1000)
	g.Column(ColQuantity, 5000, whole)
	// Reading the same range in two halves must give identical values.
	a := make([]int64, 500)
	b := make([]int64, 500)
	g.Column(ColQuantity, 5000, a)
	g.Column(ColQuantity, 5500, b)
	for i := range a {
		if a[i] != whole[i] {
			t.Fatalf("first half diverges at %d", i)
		}
	}
	for i := range b {
		if b[i] != whole[500+i] {
			t.Fatalf("second half diverges at %d", i)
		}
	}
	// A different seed must give different data.
	g2 := NewGenerator(g.Table(), 43)
	c := make([]int64, 500)
	g2.Column(ColQuantity, 5000, c)
	same := 0
	for i := range c {
		if c[i] == a[i] {
			same++
		}
	}
	if same == len(c) {
		t.Error("different seeds produced identical data")
	}
}

func TestValueDistributions(t *testing.T) {
	g := testGen()
	n := 20000
	qty := make([]int64, n)
	disc := make([]int64, n)
	flag := make([]int64, n)
	date := make([]int64, n)
	g.Column(ColQuantity, 0, qty)
	g.Column(ColDiscount, 0, disc)
	g.Column(ColReturnFlag, 0, flag)
	g.Column(ColShipDate, 0, date)
	for i := 0; i < n; i++ {
		if qty[i] < 1 || qty[i] > 50 {
			t.Fatalf("quantity %d out of [1,50]", qty[i])
		}
		if disc[i] < 0 || disc[i] > 10 {
			t.Fatalf("discount %d out of [0,10]", disc[i])
		}
		if flag[i] != 'A' && flag[i] != 'N' && flag[i] != 'R' {
			t.Fatalf("returnflag %d invalid", flag[i])
		}
		if date[i] < DateMin || date[i] > DateMax {
			t.Fatalf("shipdate %d out of range", date[i])
		}
	}
	// Q6 selectivity check: quantity < 24 should hit ~46% of rows.
	hits := 0
	for _, v := range qty {
		if v < 24 {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.40 || frac > 0.52 {
		t.Errorf("quantity<24 selectivity = %.3f, want ~0.46", frac)
	}
}

func TestOrderKeyClustered(t *testing.T) {
	g := testGen()
	keys := make([]int64, 10000)
	g.Column(ColOrderKey, 0, keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatalf("orderkey not ascending at %d", i)
		}
		if keys[i]-keys[i-1] > 1 {
			t.Fatalf("orderkey jumps at %d", i)
		}
	}
}

func TestShipDateCorrelatedWithPosition(t *testing.T) {
	g := testGen()
	rows := g.Table().Rows
	early := make([]int64, 100)
	late := make([]int64, 100)
	g.Column(ColShipDate, 0, early)
	g.Column(ColShipDate, rows-100, late)
	var sumE, sumL int64
	for i := range early {
		sumE += early[i]
		sumL += late[i]
	}
	if sumL/100 <= sumE/100+1000 {
		t.Errorf("shipdate not correlated with position: early avg %d, late avg %d", sumE/100, sumL/100)
	}
}

func TestZoneMapPrunesDateRange(t *testing.T) {
	g := testGen()
	const chunks = 60
	tpc := (g.Table().Rows + chunks - 1) / chunks
	zm := g.ShipDateZoneMap(chunks, tpc)
	// Verify soundness: every actual value falls inside its chunk's bounds.
	buf := make([]int64, tpc)
	for c := 0; c < chunks; c++ {
		lo, hi := zm.Bounds(c)
		start := int64(c) * tpc
		nRows := tpc
		if start+nRows > g.Table().Rows {
			nRows = g.Table().Rows - start
		}
		g.Column(ColShipDate, start, buf[:nRows])
		for _, v := range buf[:nRows] {
			if v < lo || v > hi {
				t.Fatalf("chunk %d: value %d outside zonemap bounds [%d,%d]", c, v, lo, hi)
			}
		}
	}
	// A one-year predicate must prune most chunks.
	year2 := zm.Prune(365, 2*365)
	if year2.Len() >= chunks/2 {
		t.Errorf("one-year prune kept %d of %d chunks", year2.Len(), chunks)
	}
	if year2.Empty() {
		t.Error("one-year prune kept nothing")
	}
}

func TestMeasuredDensitiesNearDeclared(t *testing.T) {
	g := testGen()
	for _, col := range []int{ColOrderKey, ColReturnFlag, ColLineStatus, ColQuantity, ColDiscount} {
		declared := g.Table().Columns[col].BitsPerValue
		got, err := g.MeasureDensity(col, 30000)
		if err != nil {
			t.Fatalf("col %d: %v", col, err)
		}
		if got > declared*2.5+2 {
			t.Errorf("col %s: measured %.2f bits/value, declared %.2f", g.Table().Columns[col].Name, got, declared)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	g := testGen()
	for name, f := range map[string]func(){
		"bad scale":     func() { LineitemTable(0) },
		"row overflow":  func() { g.Column(ColQuantity, g.Table().Rows-1, make([]int64, 2)) },
		"negative row":  func() { g.Column(ColQuantity, -1, make([]int64, 1)) },
		"string as int": func() { g.Column(ColComment, 0, make([]int64, 1)) },
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
}

func TestNSMLayoutOverLineitem(t *testing.T) {
	// Sanity: SF-10 lineitem in 16 MB chunks lands near the paper's setup
	// (a >4 GB table, a few hundred chunks).
	tab := LineitemTable(10)
	l := storage.NewNSMLayout(tab, 16<<20, 0)
	if l.NumChunks() < 200 || l.NumChunks() > 600 {
		t.Errorf("SF-10 lineitem = %d chunks, want a few hundred", l.NumChunks())
	}
	total := float64(tab.Rows) * tab.NSMTupleBytes()
	if total < 4e9 {
		t.Errorf("SF-10 lineitem = %.1f GB NSM, want > 4 GB", total/1e9)
	}
}

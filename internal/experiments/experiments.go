// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 row-wise, §6 column-wise): Table 2/3 policy comparisons,
// Table 4 column-overlap, and Figures 2, 4, 5, 6, 7 and 8. Each experiment
// has an options struct with paper defaults, a Quick() variant for tests and
// benchmarks, and a formatted text rendering that mirrors the paper's rows.
//
// Absolute seconds come from the simulated substrate, so they differ from
// the paper's Opteron/RAID testbed; the experiments are judged on shape —
// which policy wins, by what rough factor, and where crossovers occur.
// EXPERIMENTS.md records paper-versus-measured for every artifact.
package experiments

import (
	"fmt"
	"strings"

	"coopscan/internal/storage"
	"coopscan/internal/tpch"
	"coopscan/internal/workload"
)

// ChunkBytes is the paper's scan I/O unit: 16 MB.
const ChunkBytes = 16 << 20

// PAXTupleBytes is the effective lineitem row width in MonetDB/X100's PAX
// storage: SF-10 lineitem "consumes over 4 GB", i.e. ~72 B/tuple.
const PAXTupleBytes = 72.0

// NSMLineitem builds the paper's row-store benchmark table: TPC-H lineitem
// at the given scale factor, 16 MB chunks.
func NSMLineitem(sf float64) *storage.NSMLayout {
	return storage.NewNSMLayoutWidth(tpch.LineitemTable(sf), ChunkBytes, 0, PAXTupleBytes)
}

// DSMLineitem builds the column-store benchmark table: lineitem with
// compressed per-column densities and logical chunks of 1 M tuples (SF 40
// gives the paper's 240 M tuples in 240 logical chunks). Physical I/O uses
// the paper's large fixed-size blocks (§6.1: DSM reuses the 16 MB block
// technique "introduced in NSM for good concurrent bandwidth"), so a block
// loaded for one chunk carries neighbouring chunks' data and narrow columns
// are read in far larger units than one chunk needs — both §6.1 effects.
func DSMLineitem(sf float64) *storage.DSMLayout {
	return storage.NewDSMLayout(tpch.LineitemTable(sf), 1_000_000, ChunkBytes, 0)
}

// Q6Cols and Q1Cols are the lineitem columns the FAST and SLOW queries read
// in DSM mode.
func Q6Cols() storage.ColSet {
	return storage.Cols(tpch.ColShipDate, tpch.ColDiscount, tpch.ColQuantity, tpch.ColExtendedPrice)
}

func Q1Cols() storage.ColSet {
	return storage.Cols(tpch.ColShipDate, tpch.ColQuantity, tpch.ColExtendedPrice,
		tpch.ColDiscount, tpch.ColTax, tpch.ColReturnFlag, tpch.ColLineStatus)
}

// speedCols is the Spec.Cols hook mapping FAST→Q6, SLOW→Q1 columns.
func speedCols(s workload.Speed) storage.ColSet {
	if s == workload.Fast {
		return Q6Cols()
	}
	return Q1Cols()
}

// header renders a fixed-width experiment banner.
func header(b *strings.Builder, title string) {
	fmt.Fprintf(b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
}

package compress_test

// The encoders' output is the on-disk format of every compressed extent, so
// an encoder rewrite must not move a byte. TestEncodedBytesGolden pins the
// length and CRC-32C of EncodeInts' output for every scheme over fixed
// stripes: the ten integer lineitem columns the table files store (tpch seed
// 1, chunk 3 of 16 384 values, and a 1 000-value short stripe) and two
// synthetic stripes at the encoders' exception budget. The file was
// captured before the word-wise packBits landed; regenerate it only for an
// intended format change:
//
//	go test ./internal/colstore/compress -run TestEncodedBytesGolden -update-golden

import (
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"coopscan/internal/colstore/compress"
	"coopscan/internal/tpch"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/encoded_golden.txt")

const goldenFile = "testdata/encoded_golden.txt"

// lineitemCols are the integer columns a table file stores, in file order.
var lineitemCols = []struct {
	name string
	col  int
}{
	{"shipdate", tpch.ColShipDate},
	{"quantity", tpch.ColQuantity},
	{"extendedprice", tpch.ColExtendedPrice},
	{"discount", tpch.ColDiscount},
	{"tax", tpch.ColTax},
	{"returnflag", tpch.ColReturnFlag},
	{"linestatus", tpch.ColLineStatus},
	{"orderkey", tpch.ColOrderKey},
	{"partkey", tpch.ColPartKey},
	{"suppkey", tpch.ColSuppKey},
}

const stripeValues = 16384

// lineitemStripe returns n values of a lineitem column starting at chunk 3
// of a 16 384-tuple-per-chunk table under tpch seed 1.
func lineitemStripe(col, n int) []int64 {
	vals := make([]int64, n)
	tpch.NewGenerator(tpch.LineitemTable(1), 1).Column(col, 3*stripeValues, vals)
	return vals
}

// exceptionHeavy is a 4-bit column with a wide outlier first, last and every
// 128th value between: as many as the encoders' 2 % exception budget takes
// under PFOR-DELTA, where each outlier costs two wide deltas, so both schemes
// carry long exception lists. With signed outliers the frame minimum is one
// of them, and PFOR stores a wide frame with a negative base instead.
func exceptionHeavy(signed bool) []int64 {
	vals := make([]int64, 4099)
	z := uint64(22)
	for i := range vals {
		z = z*6364136223846793005 + 1442695040888963407
		vals[i] = int64(z >> 60)
		if i%128 == 5 || i == 0 || i == len(vals)-1 {
			vals[i] = int64(z>>1) >> (z >> 58 & 31)
			if signed && z&1 == 1 {
				vals[i] = -vals[i]
			}
		}
	}
	return vals
}

func TestEncodedBytesGolden(t *testing.T) {
	type stripe struct {
		name string
		vals []int64
	}
	var stripes []stripe
	for _, c := range lineitemCols {
		stripes = append(stripes,
			stripe{c.name + "/16384", lineitemStripe(c.col, stripeValues)},
			stripe{c.name + "/1000", lineitemStripe(c.col, 1000)})
	}
	stripes = append(stripes,
		stripe{"exception-heavy/4099", exceptionHeavy(false)},
		stripe{"exception-heavy-signed/4099", exceptionHeavy(true)})

	var got strings.Builder
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, s := range stripes {
		for _, scheme := range []compress.Scheme{compress.Raw, compress.PFOR, compress.PFORDelta, compress.PDict} {
			buf, err := compress.EncodeInts(scheme, s.vals)
			if err != nil {
				t.Fatalf("%s %v: %v", s.name, scheme, err)
			}
			fmt.Fprintf(&got, "%s %v width=%d len=%d crc32c=%08x\n", s.name, scheme, buf[1], len(buf), crc32.Checksum(buf, castagnoli))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "(nothing)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("encoded bytes moved:\n got %s\nwant %s", line, w)
		}
	}
}

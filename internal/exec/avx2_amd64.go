package exec

// hasAVX2 reports whether this CPU, and the OS's saved register state, run
// the kernels' AVX2 bodies (avx2_amd64.s).
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// q6AVX2 is the Q6 kernel's AVX2 body over the first len(disc)&^3 rows —
// qty and price at least as long, dates too unless all — with the conjuncts
// as Q6Kernel renders them; all says the bounds decided the date conjunct,
// and dates is not read. The sums wrap as the Go body's.
//
//go:noescape
func q6AVX2(dates, disc, qty, price []int64, dateLo int64, dateW uint64, discLo int64, discW uint64, maxQty int64, all bool) (revenue, rows int64)

// q1ArithRoundsAVX2 is the AVX2 body of q1Arith and then q1Rounds, sixteen
// rows a step, over the first len(price)&^15 rows; dp, ch, disc, tax and
// qty are at least as long, and disc and tax may be dp and ch. It is exact
// over prices in [0, 2^31), discounts in [-27, 100] and taxes in
// [-100, 155] (CHECK in avx2_amd64.s), where no result can be -1: it stops
// before the first step with a row outside that range. For the rows before
// it writes each row's discounted price and charge to dp and ch and runs
// every round, and it returns how many rows that is and the wrapping sum of
// their results, as q1Rounds does.
//
//go:noescape
func q1ArithRoundsAVX2(dp, ch, price, disc, tax, qty []int64, rounds int) (sum int64, rows int)

// q1SumAVX2 is the AVX2 body of q1Table.sum over the first len(gid)&^3 rows
// (qty, price, dp and ch at least as long), adding into sums, the table's:
// each row's count and its four measures at once, as one vector onto the
// four adjacent sums from SumQty on.
//
//go:noescape
func q1SumAVX2(sums *[q1Mask + 1]Q1Group, gid []uint8, qty, price, dp, ch []int64)

// q1OrdinalsAVX2 is the AVX2 body of q1Table.ordinals over the first
// len(flag)&^3 rows (gid and status at least as long), reading the table's
// keys: four rows a step, up to the first step with a row whose key is not
// at its home entry, which it stops before — the Go body probes and claims
// entries. It writes the ordinals of the rows before it to gid and returns
// how many rows that is.
//
//go:noescape
func q1OrdinalsAVX2(keys *[2 * q1Slots]uint32, gid []uint8, flag, status []int64) (rows int)

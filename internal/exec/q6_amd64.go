package exec

// hasAVX2 reports whether this CPU, and the OS's saved register state, run
// the Q6 kernel's AVX2 body.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// q6AVX2 is the Q6 kernel's AVX2 body (q6_amd64.s) over the first
// len(disc)&^3 rows — qty and price at least as long, dates too unless all —
// with the conjuncts as Q6Kernel renders them; all says the bounds decided
// the date conjunct, and dates is not read. The sums wrap as the Go body's.
//
//go:noescape
func q6AVX2(dates, disc, qty, price []int64, dateLo int64, dateW uint64, discLo int64, discW uint64, maxQty int64, all bool) (revenue, rows int64)

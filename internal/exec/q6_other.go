//go:build !amd64

package exec

// Only amd64 has the AVX2 body; elsewhere Q6Kernel runs the Go body.
const hasAVX2 = false

func q6AVX2(dates, disc, qty, price []int64, dateLo int64, dateW uint64, discLo int64, discW uint64, maxQty int64, all bool) (revenue, rows int64) {
	panic("exec: the Q6 AVX2 body runs on amd64 only")
}

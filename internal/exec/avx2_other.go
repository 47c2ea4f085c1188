//go:build !amd64

package exec

// Only amd64 has the AVX2 bodies; elsewhere the kernels run the Go ones.
const hasAVX2 = false

func q6AVX2(dates, disc, qty, price []int64, dateLo int64, dateW uint64, discLo int64, discW uint64, maxQty int64, all bool) (revenue, rows int64) {
	panic("exec: the Q6 AVX2 body runs on amd64 only")
}

func q1ArithRoundsAVX2(dp, ch, price, disc, tax, qty []int64, rounds int) (sum int64, rows int) {
	panic("exec: the Q1 AVX2 body runs on amd64 only")
}

func q1SumAVX2(sums *[q1Mask + 1]Q1Group, gid []uint8, qty, price, dp, ch []int64) {
	panic("exec: the Q1 AVX2 body runs on amd64 only")
}

func q1OrdinalsAVX2(keys *[2 * q1Slots]uint32, gid []uint8, flag, status []int64) (rows int) {
	panic("exec: the Q1 AVX2 body runs on amd64 only")
}

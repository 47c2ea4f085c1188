//go:build race

package exec

// The race detector does not see an assembly body's reads.
const raceBuild = true

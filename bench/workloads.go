package main

import "fmt"

// Table geometry shared by every workload: 48 chunks of 1.75 MiB per table,
// two tables with fixed data seeds. --seed drives only the scan plan.
const (
	tableRows      = 786_432
	tuplesPerChunk = 16_384
	numTables      = 2
)

var tableSeeds = [numTables]uint64{1, 2}

// format is the physical organisation of a workload's tables.
type format string

const (
	formatNSM  format = "nsm"
	formatDSM  format = "dsm"
	formatDSMZ format = "dsmz" // compressed DSM (TableFile v4)
)

// workloadSpec is one fixed workload. Every field is a constant of the
// benchmark: none depends on the machine or on --seed.
type workloadSpec struct {
	// name keys the workload in BENCHMARK.json, which says why it exists.
	name    string
	format  format
	streams int
	// budgetChunks is the shared buffer budget in full-width chunks.
	budgetChunks int
	// readBandwidth is the per-load-stream device model in bytes/s (0 = page
	// cache speed).
	readBandwidth int64
	// shortScans: every scan is FAST over 3–8 chunks (resident-fanin). The
	// other workloads draw 10/25/50/100 % ranges, every third scan SLOW.
	shortScans bool
	// preds: FAST scans carry the Q6 predicate ranges, so zonemap-carrying
	// tables prune chunks before registration.
	preds bool
	// serve: scans go through serve.Frontend over h2c instead of
	// Server.ScanWith, with scans of at most a quarter of the table
	// interactive (Q6 aggregate) and longer ones batch (Q1 projection).
	serve bool
}

const (
	inFlightDepth = 4
	serveConns    = 2
	serveMaxLive  = 16
	serveMaxQueue = 16
)

var workloads = []workloadSpec{
	{name: "nsm-io", format: formatNSM, streams: 16, budgetChunks: 16, readBandwidth: 64 << 20},
	{name: "dsmz-cpu", format: formatDSMZ, streams: 16, budgetChunks: 16, preds: true},
	{name: "resident-fanin", format: formatDSM, streams: 512, budgetChunks: 2 * tableRows / tuplesPerChunk, shortScans: true},
	{name: "serve-dsmz", format: formatDSMZ, streams: 24, budgetChunks: 16, preds: true, serve: true},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

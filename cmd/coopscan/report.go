package main

import (
	"fmt"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
)

// liveOutcome is one executed query.
type liveOutcome struct {
	name    string
	chunks  int
	latency time.Duration
	useful  int64
}

// runResult is one policy run's outcome: the per-query latencies grouped by
// table plus the server's final engine.Status snapshot — the same document
// /statusz serves — which the shared reporter below renders. Both the live
// and multi subcommands print through it.
type runResult struct {
	policy      core.Policy
	total       time.Duration
	perTable    [][]liveOutcome
	status      engine.Status
	realBytes   int64
	usefulBytes int64
	unavailable int // scans failed by quarantined parts (fault runs only)
	verbose     bool
}

func (r *runResult) String() string {
	var sum, max time.Duration
	n := 0
	for _, outs := range r.perTable {
		for _, o := range outs {
			sum += o.latency
			if o.latency > max {
				max = o.latency
			}
			n++
		}
	}
	avg := time.Duration(0)
	if n > 0 {
		avg = sum / time.Duration(n)
	}
	bw := float64(r.realBytes) / r.total.Seconds() / (1 << 20)
	single := len(r.perTable) == 1
	out := fmt.Sprintf("%-9s total %8v  avg %8v  max %8v",
		r.policy, r.total.Round(time.Millisecond), avg.Round(time.Millisecond), max.Round(time.Millisecond))
	if single {
		// One table: fold its decision counters into the aggregate line.
		ts := r.status.Tables[0]
		out += fmt.Sprintf("  loads %4d  evict %4d", ts.ABM.Loads, ts.ABM.Evictions)
	}
	out += fmt.Sprintf("  read %8s (%.0f MiB/s)  useful %8s (%.2fx)\n",
		fmtBytes(r.realBytes), bw, fmtBytes(r.usefulBytes), usefulFraction(r.usefulBytes, r.realBytes))
	out += faultLine(r.status.Faults, r.unavailable)
	out += diskLine(r.status.Tables)
	out += schedLine(r.status.Tables)
	if !single {
		for table, outs := range r.perTable {
			out += r.tableLine(table, outs)
		}
	}
	if r.verbose {
		for _, outs := range r.perTable {
			for _, o := range outs {
				out += fmt.Sprintf("  %-10s %4d chunks  %8v  useful %8s\n",
					o.name, o.chunks, o.latency.Round(time.Millisecond), fmtBytes(o.useful))
			}
		}
	}
	return out
}

// tableLine renders one table's aggregate row of a multi-table report.
func (r *runResult) tableLine(table int, outs []liveOutcome) string {
	var tSum, tMax time.Duration
	var tUseful int64
	for _, o := range outs {
		tSum += o.latency
		if o.latency > tMax {
			tMax = o.latency
		}
		tUseful += o.useful
	}
	tAvg := time.Duration(0)
	if len(outs) > 0 {
		tAvg = tSum / time.Duration(len(outs))
	}
	ts := r.status.Tables[table]
	line := fmt.Sprintf("  %-14s avg %8v  max %8v  loads %4d  evict %4d  read %8s  useful %8s  budget %s",
		ts.Name, tAvg.Round(time.Millisecond), tMax.Round(time.Millisecond),
		ts.ABM.Loads, ts.ABM.Evictions, fmtBytes(ts.ABM.BytesRead), fmtBytes(tUseful), fmtBytes(ts.BudgetBytes))
	if ts.DiskBytesRead > 0 && ts.DiskBytesRead != ts.ABM.BytesRead {
		line += fmt.Sprintf("  disk %8s", fmtBytes(ts.DiskBytesRead))
	}
	if ts.ChunksPruned > 0 {
		line += fmt.Sprintf("  pruned %4d", ts.ChunksPruned)
	}
	return line + "\n"
}

// diskLine renders the stored-vs-decoded byte accounting and the
// zonemap-pruning counter, or nothing when no table diverges from the raw
// unpredicated path (raw files read decoded widths, and nothing prunes
// without -prune, so the line only appears for compressed or predicated
// runs).
func diskLine(tables []engine.TableStats) string {
	var disk, decoded, pruned int64
	for _, ts := range tables {
		disk += ts.DiskBytesRead
		decoded += ts.ABM.BytesRead
		pruned += ts.ChunksPruned
	}
	if pruned == 0 && (disk == 0 || disk == decoded) {
		return ""
	}
	ratio := 0.0
	if disk > 0 {
		ratio = float64(decoded) / float64(disk)
	}
	return fmt.Sprintf("  disk: %s stored read, %s decoded (%.2fx), %d chunks pruned\n",
		fmtBytes(disk), fmtBytes(decoded), ratio, pruned)
}

// schedLine renders the scheduling-cost meter, or nothing when
// -measure-sched was off.
func schedLine(tables []engine.TableStats) string {
	var schedNanos, schedCalls int64
	for _, ts := range tables {
		schedNanos += ts.SchedNanos
		schedCalls += ts.SchedCalls
	}
	if schedCalls == 0 {
		return ""
	}
	return fmt.Sprintf("  scheduling: %d decisions, %.0f ns/decision\n",
		schedCalls, float64(schedNanos)/float64(schedCalls))
}

// usefulFraction is bytes-consumed / bytes-read: above 1 means cross-query
// sharing served more projection bytes than the device delivered; well
// below 1 means the layout read bytes no query used (NSM's row-width tax).
func usefulFraction(useful, read int64) float64 {
	if read <= 0 {
		return 0
	}
	return float64(useful) / float64(read)
}

// faultLine renders the server's fault-handling counters, or nothing when
// the run saw no fault activity at all (the fault-free fast path stays
// silent).
func faultLine(f engine.FaultStats, unavailable int) string {
	if f == (engine.FaultStats{}) && unavailable == 0 {
		return ""
	}
	return fmt.Sprintf("  faults: %d retries, %d checksum, %d quarantined parts, %d failed scans, %d cancelled\n",
		f.Retries, f.ChecksumErrors, f.QuarantinedParts, f.FailedScans, f.CancelledScans)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

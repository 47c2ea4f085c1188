package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/iofault"
)

// liveOpts is what `coopscan live` and `coopscan multi` parse from their
// arguments, and the spec of the policy runs that follow. The two are one
// command: live is the one-table case, naming its table with -file where
// multi names a set with -dir and -tables.
type liveOpts struct {
	cmd                 string // "live" or "multi"
	file, dir           string
	tables              int
	table               tableFlags
	server              serverFlags
	policies            []core.Policy
	streams, queries    int
	stagger             time.Duration
	measureSched        bool
	httpAddr, tracePath string
	verbose             bool
}

// parseLive parses the arguments of live or multi; a mistake ends the
// process with status 2.
func parseLive(cmd string, args []string) *liveOpts {
	o := &liveOpts{cmd: cmd, tables: 1}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	bufferMB := int64(16)
	if cmd == "multi" {
		bufferMB = 24
		fs.StringVar(&o.dir, "dir", "", "directory for the table files (default $TMPDIR, created on demand)")
		fs.IntVar(&o.tables, "tables", 2, "number of tables")
	} else {
		fs.StringVar(&o.file, "file", "", "table file path (default: a per-shape file under $TMPDIR, created on demand)")
	}
	o.table.register(fs)
	o.server.register(fs, "all", bufferMB)
	fs.IntVar(&o.streams, "streams", 8, "concurrent query streams per table")
	fs.IntVar(&o.queries, "queries", 2, "queries per stream")
	fs.DurationVar(&o.stagger, "stagger", 20*time.Millisecond, "delay between stream starts")
	fs.BoolVar(&o.measureSched, "measure-sched", false, "meter scheduling decisions and report sched-ns/decision")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. :9090)")
	fs.StringVar(&o.tracePath, "trace", "", "write a Perfetto-loadable scan-timeline trace to this file")
	fs.BoolVar(&o.verbose, "v", false, "print per-query latencies")
	fs.Parse(args)
	var err error
	if o.policies, err = parsePolicies(o.server.policy); err != nil {
		exit(cmd, 2, err)
	}
	if o.tables < 1 {
		exit(cmd, 2, errors.New("need at least one table"))
	}
	return o
}

// header prints what is about to run.
func (o *liveOpts) header(tfs []*engine.TableFile) {
	tf := tfs[0]
	var raw int64
	for _, tf := range tfs {
		raw += int64(tf.NumChunks()) * tf.ChunkBytes()
	}
	if o.cmd == "multi" {
		fmt.Printf("tables: %d × %d rows (%s, %d chunks × %s each, %s total)\n",
			o.tables, o.table.rows, describeFormat(tf), tf.NumChunks(), fmtBytes(tf.ChunkBytes()), fmtBytes(raw))
		fmt.Printf("workload: %d streams × %d queries per table, %s shared buffer, in-flight depth %d, stagger %v\n",
			o.streams, o.queries, fmtBytes(o.server.bufferMB<<20), o.server.inflight, o.stagger)
		return
	}
	fmt.Printf("table: %s (%s, %d rows, %d chunks × %s, %s total)\n",
		tf.Path(), describeFormat(tf), tf.Rows(), tf.NumChunks(), fmtBytes(tf.ChunkBytes()), fmtBytes(raw))
	if tf.Compressed() {
		fmt.Printf("stored: %s of %s raw (%.2fx compression)\n",
			fmtBytes(tf.StoredBytes()), fmtBytes(raw), float64(raw)/float64(tf.StoredBytes()))
	}
	fmt.Printf("workload: %d streams × %d queries, %s buffer, stagger %v\n",
		o.streams, o.queries, fmtBytes(o.server.bufferMB<<20), o.stagger)
}

// runLive is the `coopscan live` and `coopscan multi` subcommands: real
// chunked table files, generated or reused, served by one engine.Server
// under a single shared buffer budget, with N concurrent query streams per
// table running in wall-clock time under one or all scheduling policies.
// It reports per-query latency, aggregate bandwidth and the useful-bytes
// fraction (bytes the queries' projections consumed vs bytes read off the
// device). With -dsm the files are stored column-major, so queries read
// only the columns they project — the paper's §5 DSM cooperative scans.
// With several tables this is the paper's §7 scenario executed for real:
// per-table ABMs, the demand-driven budget arbiter, and a bounded
// in-flight load queue overlapping reads across tables.
func runLive(cmd string, args []string) {
	o := parseLive(cmd, args)
	paths := []string{o.file}
	if cmd == "multi" {
		paths = o.table.generated(cmd, o.dir, o.tables)
	} else if o.file == "" {
		paths[0] = filepath.Join(os.TempDir(), o.table.name(cmd)+".tbl")
	}
	tfs := o.table.open(cmd, paths)
	defer closeAll(tfs)
	injectors := o.server.inject(cmd, tfs)
	rig, err := newObsRig(o.httpAddr, o.tracePath)
	if err != nil {
		exit(cmd, 2, err)
	}
	defer rig.Close()
	o.header(tfs)
	if injectors != nil {
		fmt.Printf("faults: plan %q, seed %d\n", o.server.faultPlan, o.server.faultSeed)
	}
	fmt.Println()

	for _, pol := range o.policies {
		res, err := runPolicy(o, tfs, pol, injectors != nil, rig)
		if err != nil {
			exit(cmd, 1, err)
		}
		fmt.Print(res)
	}
	printInjectorStats(injectors)
}

// printInjectorStats reports the cumulative injection counters (all policy
// runs of this invocation share the injectors, so transient windows carry
// over exactly as they would on a real flaky device).
func printInjectorStats(injs []*iofault.Injector) {
	if injs == nil {
		return
	}
	var total iofault.Stats
	for _, inj := range injs {
		st := inj.Stats()
		total.Reads += st.Reads
		total.Transients += st.Transients
		total.Shorts += st.Shorts
		total.Corruptions += st.Corruptions
		total.Delays += st.Delays
		total.BadReads += st.BadReads
	}
	fmt.Printf("injected: %d faults over %d reads (%d transient, %d short, %d corrupt, %d bad-range) + %d delays\n",
		total.Injected(), total.Reads, total.Transients, total.Shorts, total.Corruptions, total.BadReads, total.Delays)
}

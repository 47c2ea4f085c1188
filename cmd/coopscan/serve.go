package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/obs"
	"coopscan/internal/serve"
)

// serveOpts is what `coopscan serve` parses from its arguments.
type serveOpts struct {
	addr, files                           string
	tables                                int
	table                                 tableFlags
	server                                serverFlags
	policy                                core.Policy
	maxLive, maxQueue                     int
	heartbeat, writeTimeout, drainTimeout time.Duration
}

// parseServe parses the arguments of serve; a mistake ends the process
// with status 2.
func parseServe(args []string) *serveOpts {
	o := &serveOpts{}
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&o.files, "file", "", "comma-separated table file paths (default: -tables generated files under $TMPDIR)")
	fs.IntVar(&o.tables, "tables", 1, "number of tables to generate when -file is empty")
	o.table.register(fs)
	o.server.register(fs, "relevance", 24)
	fs.IntVar(&o.maxLive, "max-live", 64, "admission ceiling: concurrently running scan sessions")
	fs.IntVar(&o.maxQueue, "max-queue", 0, "admission wait-queue bound (0 = 4×max-live, <0 = shed at the ceiling)")
	fs.DurationVar(&o.heartbeat, "heartbeat", 5*time.Second, "idle heartbeat interval on scan streams (<0 disables)")
	fs.DurationVar(&o.writeTimeout, "write-timeout", 10*time.Second, "per-write client stall bound; a blown deadline cancels the scan (<0 disables)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound on shutdown; stragglers are cancelled at the deadline")
	fs.Parse(args)
	policies, err := parsePolicies(o.server.policy)
	if err != nil || len(policies) != 1 {
		exit("serve", 2, errors.New("-policy must name exactly one policy"))
	}
	o.policy = policies[0]
	return o
}

// runServe is the `coopscan serve` subcommand: the cooperative-scan engine
// behind the HTTP/2 chunked-streaming front-end. Tables come from -file
// paths or are generated on demand; admission control (ceiling + bounded
// wait queue + typed shedding), SLO tiers, per-request deadlines and
// heartbeats are the serve package's. The listen address also exposes
// /metrics, /statusz and /debug/pprof, plus /admin/attach and
// /admin/detach for table churn on the running server. SIGINT/SIGTERM
// triggers a graceful drain bounded by -drain-timeout.
func runServe(args []string) {
	o := parseServe(args)
	var tfs []*engine.TableFile
	if o.files == "" {
		tfs = o.table.open("serve", o.table.generated("serve", "", o.tables))
	}
	for _, p := range strings.Split(o.files, ",") {
		if p = strings.TrimSpace(p); p != "" {
			tf, err := engine.Open(p)
			if err != nil {
				exit("serve", 1, err)
			}
			tfs = append(tfs, tf)
		}
	}
	defer closeAll(tfs)
	injectors := o.server.inject("serve", tfs)

	reg := obs.NewRegistry()
	cfg := o.server.config(o.policy)
	cfg.Obs = reg
	eng, err := engine.NewServer(cfg, tfs...)
	if err != nil {
		exit("serve", 1, err)
	}
	front, err := serve.New(serve.Config{
		Engine:       eng,
		MaxLive:      o.maxLive,
		MaxQueue:     o.maxQueue,
		Heartbeat:    o.heartbeat,
		WriteTimeout: o.writeTimeout,
		PruneQ6:      o.server.prune,
		Obs:          reg,
	})
	if err != nil {
		exit("serve", 1, err)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		exit("serve", 1, err)
	}
	srv := front.Server()
	for i, tf := range tfs {
		fmt.Printf("table %-14s %s (%s, %d chunks × %s)\n",
			eng.TableName(i), tf.Path(), describeFormat(tf), tf.NumChunks(), fmtBytes(tf.ChunkBytes()))
	}
	fmt.Printf("serving: http://%s/scan  (h2c; also /metrics /statusz /debug/pprof /admin/attach /admin/detach)\n", ln.Addr())
	fmt.Printf("admission: %d live, queue %d, policy %v, %s buffer\n", o.maxLive, o.maxQueue, o.policy, fmtBytes(o.server.bufferMB<<20))
	if injectors != nil {
		fmt.Printf("faults: plan %q, seed %d\n", o.server.faultPlan, o.server.faultSeed)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Printf("\n%v: draining (bound %v)...\n", sig, o.drainTimeout)
	case err := <-done:
		exit("serve", 1, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := front.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "coopscan serve: drain:", err)
	}
	srv.Close()
	ss := front.Sessions()
	for _, tier := range []string{"interactive", "batch"} {
		c := ss.Tiers[tier]
		fmt.Printf("%-12s admitted %d (queued %d), completed %d, disconnected %d, deadline-exceeded %d, shed %d\n",
			tier, c.Admitted, c.Queued, c.Completed, c.Disconnected, c.DeadlineExceeded, c.Shed)
	}
	fmt.Printf("peak live %d of %d\n", ss.PeakLive, ss.MaxLive)
	printInjectorStats(injectors)
}

// runScanClient is the `coopscan scan` subcommand: a minimal NDJSON client
// for a running `coopscan serve`, streaming one scan and reporting the
// per-chunk receipts and the trailer's totals. Typed shedding surfaces the
// server's retry-after hint.
func runScanClient(args []string) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "serve base URL")
	table := fs.String("table", "", "table name (required; see the server's /statusz)")
	start := fs.Int("start", 0, "first chunk (inclusive)")
	end := fs.Int("end", 0, "last chunk (exclusive; 0 = table end)")
	cols := fs.String("cols", "q6", "projection: q6|q1|all or comma-separated column indices")
	tier := fs.String("tier", "batch", "SLO tier: interactive|batch")
	deadlineMS := fs.Int64("deadline-ms", 0, "request deadline in milliseconds (0 = none)")
	aggQ6 := fs.Bool("q6", false, "fold the paper's Q6 aggregate server-side into the trailer")
	name := fs.String("name", "cli", "session name (shows up in /statusz and pprof labels)")
	quiet := fs.Bool("q", false, "suppress per-chunk lines")
	fs.Parse(args)
	if *table == "" {
		exit("scan", 2, errors.New("-table is required"))
	}

	t, err := serve.ParseTier(*tier)
	if err != nil {
		exit("scan", 2, err)
	}
	startAt := time.Now()
	res, err := serve.RunScan(context.Background(), nil, *url, serve.ScanParams{
		Table: *table, Start: *start, End: *end, Cols: *cols,
		Tier: t, DeadlineMS: *deadlineMS, Name: *name, AggQ6: *aggQ6,
	}, func(c serve.Chunk) {
		if !*quiet {
			fmt.Printf("chunk %4d  %6d tuples  crc %08x\n", c.Chunk, c.Tuples, c.CRC)
		}
	})
	if err != nil {
		var shed *serve.ShedError
		if errors.As(err, &shed) {
			fmt.Fprintf(os.Stderr, "coopscan scan: shed by admission control; retry after %v\n", shed.RetryAfter)
			os.Exit(3)
		}
		exit("scan", 1, err)
	}
	elapsed := time.Since(startAt)
	tr := res.Trailer
	fmt.Printf("done: chunks %d, tuples %d, IOs %d, read %s, %v (%s/s)\n",
		tr.Chunks, tr.Tuples, tr.IOs, fmtBytes(tr.BytesRead), elapsed.Round(time.Millisecond),
		fmtBytes(int64(float64(tr.BytesRead)/elapsed.Seconds())))
	if *aggQ6 {
		fmt.Printf("q6: revenue %d over %d rows\n", tr.Q6Revenue, tr.Q6Rows)
	}
}

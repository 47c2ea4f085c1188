package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/obs"
	"coopscan/internal/serve"
)

// tables are a workload's table files on disk together with their goldens:
// everything that does not depend on whether the run is traced.
type tables struct {
	spec  *workloadSpec
	dir   string
	paths [numTables]string
	gold  [numTables]*golden
	// createSeconds/createBytes and openSeconds time engine.Create* and
	// engine.Open, summed over the tables.
	createSeconds, openSeconds float64
	createBytes                int64
}

// createTables writes, syncs (engine.Create* syncs before returning) and
// closes the workload's table files under dir, then builds the goldens from
// a fresh Open, so write-back does not run inside the measured window and
// the goldens see the bytes a reader sees.
func createTables(spec *workloadSpec, dir string) (*tables, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tb := &tables{spec: spec, dir: dir}
	for i := range tb.paths {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.tbl", spec.format, i))
		start := time.Now()
		var tf *engine.TableFile
		var err error
		switch spec.format {
		case formatNSM:
			tf, err = engine.CreateFormat(path, engine.NSM, tableRows, tuplesPerChunk, tableSeeds[i])
		case formatDSM:
			tf, err = engine.CreateFormat(path, engine.DSM, tableRows, tuplesPerChunk, tableSeeds[i])
		default:
			tf, err = engine.CreateCompressed(path, tableRows, tuplesPerChunk, tableSeeds[i])
		}
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", path, err)
		}
		tb.createSeconds += time.Since(start).Seconds()
		tb.createBytes += int64(tf.NumChunks()) * tf.ChunkBytes()
		if err := tf.Close(); err != nil {
			return nil, err
		}
		tb.paths[i] = path

		start = time.Now()
		tf, err = engine.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", path, err)
		}
		tb.openSeconds += time.Since(start).Seconds()
		tb.gold[i], err = buildGolden(tf, spec.serve)
		tf.Close()
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", path, err)
		}
	}
	return tb, nil
}

func (tb *tables) remove() { os.RemoveAll(tb.dir) }

// system is a running engine (and, on the serve workload, its front-end on a
// loopback listener) over freshly opened table files.
type system struct {
	tb  *tables
	tfs [numTables]*engine.TableFile
	srv *engine.Server

	// Serve workload only.
	fe         *serve.Frontend
	httpSrv    *http.Server
	serveDone  chan error
	url        string
	clients    []*http.Client
	tableNames [numTables]string

	// Traced runs only: the registry handed to the engine and front-end, and
	// the meter behind TableFile.WrapReader.
	reg *obs.Registry
	dev *deviceMeter
	tr  *tracer

	// epoch is the zero of every recorded time; answered counts chunks
	// answered (delivered, or pruned at scan return) since then.
	epoch    time.Time
	answered atomic.Int64
	// Traced runs: time spent in and tuples put through each class's kernel.
	kernelNanos, kernelTuples [numClasses]atomic.Int64
}

// start opens the tables and starts the engine. With tr non-nil the run is
// traced: the server gets a metrics registry and MeasureScheduling, and every
// table read goes through a timing io.ReaderAt.
func (tb *tables) start(tr *tracer) (*system, error) {
	sys := &system{tb: tb, tr: tr, epoch: time.Now()}
	if tr != nil {
		tr.epoch = sys.epoch
		sys.reg = obs.NewRegistry()
		sys.dev = &deviceMeter{tr: tr}
	}
	for i, path := range tb.paths {
		tf, err := engine.Open(path)
		if err != nil {
			sys.stop()
			return nil, err
		}
		if sys.dev != nil {
			tf.WrapReader(sys.dev.wrap)
		}
		sys.tfs[i] = tf
	}
	spec := tb.spec
	srv, err := engine.NewServer(engine.ServerConfig{
		Policy:            core.Relevance,
		BufferBytes:       int64(spec.budgetChunks) * sys.tfs[0].ChunkBytes(),
		InFlightDepth:     inFlightDepth,
		ReadBandwidth:     spec.readBandwidth,
		MeasureScheduling: tr != nil,
		Obs:               sys.reg,
	}, sys.tfs[:]...)
	if err != nil {
		sys.stop()
		return nil, err
	}
	sys.srv = srv
	for i := range sys.tableNames {
		sys.tableNames[i] = srv.TableName(i)
	}
	if spec.serve {
		if err := sys.startFrontend(); err != nil {
			sys.stop()
			return nil, err
		}
	}
	if spec.budgetChunks >= numTables*sys.tfs[0].NumChunks() {
		// Everything fits: make it resident before anything is timed.
		for t := range sys.tfs {
			full := plannedScan{table: t, start: 0, end: sys.tfs[t].NumChunks()}
			if _, err := sys.runScan(nil, 0, 0, full); err != nil {
				sys.stop()
				return nil, fmt.Errorf("preload table %d: %w", t, err)
			}
		}
	}
	return sys, nil
}

func (sys *system) startFrontend() error {
	fe, err := serve.New(serve.Config{
		Engine:   sys.srv,
		MaxLive:  serveMaxLive,
		MaxQueue: serveMaxQueue,
		PruneQ6:  true,
		Obs:      sys.reg,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sys.fe = fe
	sys.httpSrv = fe.Server()
	sys.serveDone = make(chan error, 1)
	go func() { sys.serveDone <- sys.httpSrv.Serve(ln) }()
	sys.url = "http://" + ln.Addr().String()
	// One transport is one h2c connection: its streams multiplex, so the
	// client streams share serveConns TCP connections.
	for i := 0; i < serveConns; i++ {
		var p http.Protocols
		p.SetUnencryptedHTTP2(true)
		sys.clients = append(sys.clients, &http.Client{
			Transport: admitTimer{&http.Transport{Protocols: &p}},
		})
	}
	return nil
}

// stop shuts the system down and waits for its goroutines.
func (sys *system) stop() error {
	var err error
	switch {
	case sys.fe != nil:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = sys.fe.Shutdown(ctx) // closes the engine too
		cancel()
		for _, c := range sys.clients {
			c.CloseIdleConnections()
		}
		sys.httpSrv.Close()
		<-sys.serveDone
	case sys.srv != nil:
		err = sys.srv.Close()
	}
	for _, tf := range sys.tfs {
		if tf != nil {
			tf.Close()
		}
	}
	return err
}

// baselines holds, per (table, class), the standalone seconds per range chunk:
// the paper's yardstick for normalised latency. One stream runs the
// workload's plan alone against each table for soloFor, issued the way the
// workload issues scans, and a class's baseline is the time its scans took
// divided by the chunks they covered. Averaging a second of scans keeps the
// baseline's own noise out of norm_latency_avg, which a handful of
// millisecond-long solo scans would not; the plan's seed is fixed, so the
// baseline does not move with --seed.
type baselines [numTables][numClasses]float64

const (
	soloFor  = time.Second
	soloSeed = 0
)

func (sys *system) measureSolo() (baselines, error) {
	var solo baselines
	for t := 0; t < numTables; t++ {
		// Stream t scans table t (streams alternate tables).
		pl := newPlanner(soloSeed, t, sys.tfs[t].NumChunks(), sys.tb.spec)
		var nanos, chunks [numClasses]int64
		began := time.Now()
		for i := 0; time.Since(began) < soloFor; i++ {
			rec, err := sys.runScan(nil, t, i, pl.next())
			if err != nil {
				return solo, fmt.Errorf("solo scan: %w", err)
			}
			nanos[rec.class] += rec.end - rec.start
			chunks[rec.class] += int64(rec.chunks)
		}
		for class := range solo[t] {
			solo[t][class] = ratio(float64(nanos[class])/1e9, float64(chunks[class]))
		}
	}
	return solo, nil
}

package soak

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/iofault"
	"coopscan/internal/serve"
	"coopscan/internal/serve/servetest"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// ServeConfig parameterises one RunServe soak.
type ServeConfig struct {
	// Seed selects table contents, fault sequences and session shapes.
	Seed uint64
	// Policy is the engine's scheduling policy.
	Policy core.Policy
	// Sessions is the phase-A session count (default 32).
	Sessions int
	// NoFaults disables the iofault injector under the base tables.
	NoFaults bool
}

// ServeReport summarises what a RunServe soak exercised.
type ServeReport struct {
	Sessions        int // phase-A sessions launched
	Completed       int // full streams, CRC-verified against golden
	Disconnected    int // clients dropped mid-stream
	DeadlineExpired int // sessions that hit their deadline (queued or mid-scan)
	Shed            int // typed 429 rejections (phases A and B)
	ChurnErrors     int // sessions that raced an attach/detach (typed, tolerated)
	Attaches        int
	Detaches        int
	Injected        int64
	Retries         int64
}

// tableGolden is a table's fault-free reference: per-chunk CRC of the Q6
// projection plus the aggregate per chunk.
type tableGolden struct {
	crcs []uint32
	q6   []exec.Q6Result
}

// goldenOf scans tf through a private clean engine (before any fault
// wrapping) and records what the front-end must reproduce, neither computed
// by the code under test: the per-chunk receipts streamed from the bytes by
// the reference, the per-chunk aggregates by the scalar kernel over the
// generator the file was written from.
func goldenOf(tf *engine.TableFile) (*tableGolden, error) {
	eng, err := engine.NewServer(engine.ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	g := &tableGolden{crcs: make([]uint32, tf.NumChunks()), q6: make([]exec.Q6Result, tf.NumChunks())}
	table := tpch.LineitemTable(1)
	table.Rows = tf.Rows()
	gen := tpch.NewGenerator(table, tf.Seed())
	cols := engine.Q6Cols()
	_, err = eng.Scan(0, "golden", storage.NewRangeSet(storage.Range{End: tf.NumChunks()}), cols, func(c int, d engine.ChunkData) {
		g.crcs[c] = servetest.ReferenceChunkCRC(cols, d)
		g.q6[c] = exec.Q6Chunk(gen, int64(c)*tf.TuplesPerChunk(), d.Tuples(), exec.DefaultQ6())
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// RunServe executes one seeded session-level soak through the HTTP
// front-end: fault-injected base tables under a bandwidth-throttled
// engine, concurrent sessions across tiers that complete (CRC-verified),
// disconnect mid-stream or expire their deadlines, admin attach/detach
// churn racing live traffic, and a deliberate overload wave that must shed
// typed. Ends with a graceful drain and the engine's leak audit.
func RunServe(cfg ServeConfig) (ServeReport, error) {
	var rep ServeReport
	if cfg.Sessions <= 0 {
		cfg.Sessions = 32
	}
	const (
		tpc      = 1000
		rows     = 12_000
		maxLive  = 4
		maxQueue = 8
	)
	rng := rand.New(rand.NewSource(int64(cfg.Seed)*6364136223846793005 + 1442695040888963407))

	dir, err := os.MkdirTemp("", "coopscan-serve-soak")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)

	// Two fault-injected base tables (NSM + DSM) plus one clean extra
	// table file that the admin endpoints attach and detach under traffic.
	formats := []engine.Format{engine.NSM, engine.DSM}
	tfs := make([]*engine.TableFile, len(formats))
	goldens := make(map[string]*tableGolden)
	baseGoldens := make([]*tableGolden, len(formats))
	injectors := make([]*iofault.Injector, len(formats))
	var budget int64
	for i, format := range formats {
		seed := cfg.Seed + uint64(i)*211
		tf, err := engine.CreateFormat(filepath.Join(dir, fmt.Sprintf("base%d.tbl", i)), format, rows, tpc, seed)
		if err != nil {
			return rep, err
		}
		defer tf.Close()
		tfs[i] = tf
		budget += 4 * tf.ChunkBytes()
		g, err := goldenOf(tf)
		if err != nil {
			return rep, err
		}
		baseGoldens[i] = g
		if !cfg.NoFaults {
			plan := iofault.Plan{
				TransientProb: 0.5, TransientMax: 2,
				ShortProb:   0.1,
				CorruptProb: 0.03,
				LatencyProb: 0.03, Latency: 100 * time.Microsecond,
			}
			tf.WrapReader(func(r io.ReaderAt) io.ReaderAt {
				injectors[i] = iofault.New(r, plan, seed*2+7)
				return injectors[i]
			})
		}
	}
	extraPath := filepath.Join(dir, "extra.tbl")
	extraTF, err := engine.CreateFormat(extraPath, engine.NSM, 8_000, tpc, cfg.Seed+997)
	if err != nil {
		return rep, err
	}
	extraGolden, err := goldenOf(extraTF)
	if err != nil {
		extraTF.Close()
		return rep, err
	}
	extraTF.Close() // the admin endpoint reopens it per attach
	goldens["extra"] = extraGolden

	eng, err := engine.NewServer(engine.ServerConfig{
		Policy:      cfg.Policy,
		BufferBytes: budget,
		LoadRetries: 8, RetryBackoff: 50 * time.Microsecond,
		ReadBandwidth: 32 << 20,
	}, tfs...)
	if err != nil {
		return rep, err
	}
	for i := range tfs {
		goldens[eng.TableName(i)] = baseGoldens[i]
	}
	front, err := serve.New(serve.Config{
		Engine:       eng,
		MaxLive:      maxLive,
		MaxQueue:     maxQueue,
		Heartbeat:    5 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
	})
	if err != nil {
		return rep, err
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxLive}}

	tableNames := []string{eng.TableName(0), eng.TableName(1), "extra"}

	// isChurnErr recognises the typed failures a session racing the
	// attach/detach churn may legitimately see.
	isChurnErr := func(err error) bool {
		if err == nil {
			return false
		}
		msg := err.Error()
		return strings.Contains(msg, "detached") || strings.Contains(msg, "unknown table") ||
			strings.Contains(msg, "404")
	}

	adminPost := func(path, body string) (int, error) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	var mu sync.Mutex // guards rep counters and firstErr
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Churn goroutine: attach the extra table, let traffic hit it, detach
	// it mid-traffic, repeat.
	churnDone := make(chan struct{})
	// The churn goroutine runs concurrently with the session launcher, and
	// *rand.Rand is not goroutine-safe: it gets its own seeded source.
	churnRNG := rand.New(rand.NewSource(int64(cfg.Seed)*31 + 17))
	go func() {
		defer close(churnDone)
		for round := 0; round < 3; round++ {
			code, err := adminPost("/admin/attach", fmt.Sprintf(`{"name":"extra","path":%q}`, extraPath))
			if err != nil || code != http.StatusOK {
				fail(fmt.Errorf("soak: attach round %d: code %d err %v", round, code, err))
				return
			}
			mu.Lock()
			rep.Attaches++
			mu.Unlock()
			time.Sleep(time.Duration(5+churnRNG.Intn(15)) * time.Millisecond)
			code, err = adminPost("/admin/detach", `{"name":"extra"}`)
			if err != nil || code != http.StatusOK {
				fail(fmt.Errorf("soak: detach round %d: code %d err %v", round, code, err))
				return
			}
			mu.Lock()
			rep.Detaches++
			mu.Unlock()
		}
	}()

	// Phase A: mixed sessions. Staggered launches so admission cycles
	// rather than resolving in one wave.
	verify := func(table string, res *serve.ScanResult) error {
		g := goldens[table]
		want := res.Header.End - res.Header.Start
		if len(res.Chunks) != want {
			return fmt.Errorf("soak: session %s: %d chunks, want %d", res.Header.Name, len(res.Chunks), want)
		}
		var q6 exec.Q6Result
		for _, c := range res.Chunks {
			if g.crcs[c.Chunk] != c.CRC {
				return fmt.Errorf("soak: session %s: chunk %d CRC %d, want %d", res.Header.Name, c.Chunk, c.CRC, g.crcs[c.Chunk])
			}
			q6.Add(g.q6[c.Chunk])
		}
		if res.Trailer.Q6Revenue != q6.Revenue || res.Trailer.Q6Rows != q6.Rows {
			return fmt.Errorf("soak: session %s: Q6 (%d,%d), want (%d,%d)", res.Header.Name, res.Trailer.Q6Revenue, res.Trailer.Q6Rows, q6.Revenue, q6.Rows)
		}
		return nil
	}

	var wg sync.WaitGroup
	rep.Sessions = cfg.Sessions
	for i := 0; i < cfg.Sessions; i++ {
		table := tableNames[rng.Intn(len(tableNames))]
		tier := serve.TierBatch
		if rng.Intn(3) == 0 {
			tier = serve.TierInteractive
		}
		kind := rng.Intn(9) // 0-5 normal, 6-7 disconnect, 8 deadline
		deadline := int64(0)
		if kind == 8 {
			deadline = int64(1 + rng.Intn(25))
		}
		stagger := time.Duration(rng.Intn(20)) * time.Millisecond
		name := fmt.Sprintf("soak-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(stagger)
			if kind == 6 || kind == 7 {
				// Disconnector: hang up after a couple of lines.
				resp, err := client.Get(ts.URL + "/scan?name=" + name + "&agg=q6&table=" + url.QueryEscape(table))
				if err != nil {
					return
				}
				br := bufio.NewReader(resp.Body)
				br.ReadString('\n')
				br.ReadString('\n')
				resp.Body.Close()
				mu.Lock()
				rep.Disconnected++
				mu.Unlock()
				return
			}
			res, err := serve.RunScan(context.Background(), client, ts.URL, serve.ScanParams{
				Table: table, Name: name, Tier: tier, AggQ6: true, DeadlineMS: deadline,
			}, nil)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if verr := verify(table, res); verr != nil {
					if firstErr == nil {
						firstErr = verr
					}
					return
				}
				rep.Completed++
			case isShed(err):
				rep.Shed++
			case isChurnErr(err):
				rep.ChurnErrors++
			case deadline > 0 && strings.Contains(err.Error(), "deadline"):
				rep.DeadlineExpired++
			case strings.Contains(err.Error(), "deadline"):
				// A queued session can out-wait nothing here (no deadline),
				// so any other deadline error is unexpected.
				if firstErr == nil {
					firstErr = fmt.Errorf("soak: session %s: %w", name, err)
				}
			default:
				if firstErr == nil {
					firstErr = fmt.Errorf("soak: session %s: %w", name, err)
				}
			}
		}()
	}
	wg.Wait()
	<-churnDone
	if firstErr != nil {
		front.Shutdown(context.Background())
		return rep, firstErr
	}

	// Phase B: deliberate overload. Fill every live slot with full-table
	// blockers, then burst past ceiling+queue; the overflow must shed.
	var blockers sync.WaitGroup
	for i := 0; i < maxLive; i++ {
		name := fmt.Sprintf("blocker-%d", i)
		blockers.Add(1)
		go func() {
			defer blockers.Done()
			res, err := serve.RunScan(context.Background(), client, ts.URL, serve.ScanParams{
				Table: tableNames[0], Name: name, AggQ6: true,
			}, nil)
			if err != nil {
				fail(fmt.Errorf("soak: %s: %w", name, err))
				return
			}
			if verr := verify(tableNames[0], res); verr != nil {
				fail(verr)
			}
		}()
	}
	blockersDone := make(chan struct{})
	go func() { blockers.Wait(); close(blockersDone) }()
	deadlineAt := time.Now().Add(5 * time.Second)
	for front.Sessions().Live < maxLive && time.Now().Before(deadlineAt) {
		select {
		case <-blockersDone:
			// Blockers already cycled through; the burst below still
			// exercises the gate, and phase A guaranteed sheds.
			deadlineAt = time.Time{}
		default:
			time.Sleep(time.Millisecond)
		}
	}
	const burst = maxLive + maxQueue + 8
	var burstWG sync.WaitGroup
	for i := 0; i < burst; i++ {
		name := fmt.Sprintf("burst-%d", i)
		burstWG.Add(1)
		go func() {
			defer burstWG.Done()
			res, err := serve.RunScan(context.Background(), client, ts.URL, serve.ScanParams{
				Table: tableNames[1], Name: name, AggQ6: true,
			}, nil)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if verr := verify(tableNames[1], res); verr != nil {
					if firstErr == nil {
						firstErr = verr
					}
					return
				}
				rep.Completed++
			case isShed(err):
				rep.Shed++
			default:
				if firstErr == nil {
					firstErr = fmt.Errorf("soak: %s: %w", name, err)
				}
			}
		}()
	}
	burstWG.Wait()
	blockers.Wait()
	if firstErr != nil {
		front.Shutdown(context.Background())
		return rep, firstErr
	}

	st := eng.Stats()
	rep.Retries = st.Faults.Retries
	if !cfg.NoFaults {
		if st.Faults.QuarantinedParts != 0 {
			front.Shutdown(context.Background())
			return rep, fmt.Errorf("soak: %d parts quarantined under a heal-always fault plan", st.Faults.QuarantinedParts)
		}
		for _, inj := range injectors {
			if inj != nil {
				rep.Injected += inj.Stats().Injected()
			}
		}
	}

	if err := front.Shutdown(context.Background()); err != nil {
		return rep, fmt.Errorf("soak: Shutdown: %w", err)
	}
	if err := eng.AuditDrained(); err != nil {
		return rep, err
	}
	ss := front.Sessions()
	if ss.Live != 0 || ss.Queued != 0 || !ss.Draining {
		return rep, fmt.Errorf("soak: post-drain sessions %+v", ss)
	}
	return rep, nil
}

// isShed reports a typed admission shed from the client's perspective.
func isShed(err error) bool {
	return errors.Is(err, serve.ErrShed)
}

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
)

// TestParseFlags pins the command line of the four table-backed
// subcommands. Parsing no arguments must yield exactly the documented
// defaults, and parsing every flag by name must carry every value to where
// the runner reads it — so a renamed flag, a changed default or a flag wired
// to the wrong field fails here.
func TestParseFlags(t *testing.T) {
	tableDefaults := tableFlags{rows: 1_500_000, tpc: 32768, seed: 1}
	serverDefaults := func(policy string, bufferMB int64) serverFlags {
		return serverFlags{policy: policy, bufferMB: bufferMB, inflight: 4, faultSeed: 1}
	}
	allTable := []string{"-dsm", "-compress", "-rows", "9000", "-tuples-per-chunk", "512", "-seed", "7"}
	allServer := []string{"-policy", "elevator", "-buffer-mb", "48", "-inflight", "8", "-read-mbps", "200", "-prune",
		"-fault-plan", "transient=0.2", "-fault-seed", "9"}
	allLive := []string{"-streams", "5", "-queries", "3", "-stagger", "1ms", "-measure-sched", "-http", ":9090", "-trace", "t.json", "-v"}
	tableSet := tableFlags{dsm: true, compress: true, rows: 9000, tpc: 512, seed: 7}
	serverSet := serverFlags{policy: "elevator", bufferMB: 48, inflight: 8, readMBs: 200, prune: true,
		faultPlan: "transient=0.2", faultSeed: 9}
	join := func(parts ...[]string) (out []string) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	liveSet := func(o liveOpts) *liveOpts {
		o.table, o.server, o.policies = tableSet, serverSet, []core.Policy{core.Elevator}
		o.streams, o.queries, o.stagger, o.measureSched = 5, 3, time.Millisecond, true
		o.httpAddr, o.tracePath, o.verbose = ":9090", "t.json", true
		return &o
	}

	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"live defaults", parseLive("live", nil), &liveOpts{
			cmd: "live", tables: 1, table: tableDefaults, server: serverDefaults("all", 16),
			policies: core.Policies, streams: 8, queries: 2, stagger: 20 * time.Millisecond}},
		{"multi defaults", parseLive("multi", nil), &liveOpts{
			cmd: "multi", tables: 2, table: tableDefaults, server: serverDefaults("all", 24),
			policies: core.Policies, streams: 8, queries: 2, stagger: 20 * time.Millisecond}},
		{"serve defaults", parseServe(nil), &serveOpts{
			addr: "127.0.0.1:8080", tables: 1, table: tableDefaults, server: serverDefaults("relevance", 24),
			policy: core.Relevance, maxLive: 64, heartbeat: 5 * time.Second, writeTimeout: 10 * time.Second,
			drainTimeout: 30 * time.Second}},
		{"create defaults", parseCreate([]string{"-file", "x.tbl"}), &createOpts{file: "x.tbl", table: tableDefaults}},

		{"live flags", parseLive("live", join([]string{"-file", "f.tbl"}, allTable, allServer, allLive)),
			liveSet(liveOpts{cmd: "live", file: "f.tbl", tables: 1})},
		{"multi flags", parseLive("multi", join([]string{"-dir", "/tmp/x", "-tables", "3"}, allTable, allServer, allLive)),
			liveSet(liveOpts{cmd: "multi", dir: "/tmp/x", tables: 3})},
		{"serve flags", parseServe(join([]string{"-addr", ":1", "-file", "a.tbl,b.tbl", "-tables", "3", "-max-live", "2",
			"-max-queue", "-1", "-heartbeat", "1s", "-write-timeout", "2s", "-drain-timeout", "3s"}, allTable, allServer)),
			&serveOpts{addr: ":1", files: "a.tbl,b.tbl", tables: 3, table: tableSet, server: serverSet, policy: core.Elevator,
				maxLive: 2, maxQueue: -1, heartbeat: time.Second, writeTimeout: 2 * time.Second, drainTimeout: 3 * time.Second}},
		// -compress implies -dsm for create.
		{"create flags", parseCreate([]string{"-file", "x.tbl", "-compress", "-rows", "9000", "-tuples-per-chunk", "512", "-seed", "7"}),
			&createOpts{file: "x.tbl", table: tableSet}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s:\n  got  %+v\n  want %+v", tc.name, tc.got, tc.want)
		}
	}

	// What the flags mean to the engine, and where generated tables live.
	wantCfg := engine.ServerConfig{Policy: core.Elevator, BufferBytes: 48 << 20, InFlightDepth: 8, ReadBandwidth: 200 << 20}
	if cfg := serverSet.config(core.Elevator); !reflect.DeepEqual(cfg, wantCfg) {
		t.Errorf("server config = %+v, want %+v", cfg, wantCfg)
	}
	if got, want := tableDefaults.name("live"), "coopscan-live-nsm-1500000-32768-1"; got != want {
		t.Errorf("live table name = %s, want %s", got, want)
	}
	if paths, want := tableSet.generated("multi", "/d", 2), "/d/coopscan-multi-dsmc-9000-512-7-t1.tbl"; paths[1] != want {
		t.Errorf("generated paths = %v, want second %s", paths, want)
	}
}

// TestMain lets the test binary stand in for the coopscan binary: with
// COOPSCAN_TEST_MAIN set it runs main() over its own arguments, so
// TestUsageFailures observes real exit codes and real stderr.
func TestMain(m *testing.M) {
	if os.Getenv("COOPSCAN_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageFailures pins the stderr line and exit code of command-line
// mistakes, end to end through main. Every case fails before a table file
// is opened or created.
func TestUsageFailures(t *testing.T) {
	tmp := t.TempDir()
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"live", "-compress"}, "coopscan live: -compress requires -dsm (compressed extents are column-major)"},
		{[]string{"multi", "-compress"}, "coopscan multi: -compress requires -dsm (compressed extents are column-major)"},
		{[]string{"serve", "-compress"}, "coopscan serve: -compress requires -dsm (compressed extents are column-major)"},
		{[]string{"live", "-policy", "fifo"}, `coopscan live: unknown policy "fifo"`},
		{[]string{"multi", "-policy", "fifo"}, `coopscan multi: unknown policy "fifo"`},
		{[]string{"serve", "-policy", "all"}, "coopscan serve: -policy must name exactly one policy"},
		{[]string{"multi", "-tables", "0"}, "coopscan multi: need at least one table"},
		{[]string{"create"}, "coopscan create: -file is required"},
		{[]string{"live", "-no-such-flag"}, "flag provided but not defined: -no-such-flag"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "COOPSCAN_TEST_MAIN=1", "TMPDIR="+tmp)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("coopscan %v: %v, want exit status 2", tc.args, err)
		}
		if first, _, _ := strings.Cut(stderr.String(), "\n"); first != tc.msg {
			t.Errorf("coopscan %v: stderr %q, want %q", tc.args, first, tc.msg)
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("usage failures left %d files behind", len(left))
	}
}

// TestOpenOrCreateKeepsOldFormatFile: a table file written in a format
// version this build does not read is neither opened nor regenerated over —
// the user is told to remove it — while a missing path is generated and a
// second call reuses it.
func TestOpenOrCreateKeepsOldFormatFile(t *testing.T) {
	f := tableFlags{rows: 2_000, tpc: 500, seed: 3}
	path := filepath.Join(t.TempDir(), "t.tbl")
	for i := 0; i < 2; i++ {
		tf, err := f.openOrCreate(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		tf.Close()
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old[8] = 4 // the header's version word: the format before this one
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = f.openOrCreate(path, 0)
	if !errors.Is(err, engine.ErrBadVersion) || !strings.Contains(err.Error(), "remove the file and regenerate it") {
		t.Fatalf("openOrCreate over a version-4 file: %v, want ErrBadVersion with the regenerate hint", err)
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, old) {
		t.Fatal("openOrCreate overwrote the old-format file")
	}
}

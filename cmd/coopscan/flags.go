package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/iofault"
)

// tableFlags describe the table files a subcommand generates: create, live,
// multi and serve all register this one block.
type tableFlags struct {
	dsm, compress bool
	rows, tpc     int64
	seed          uint64
}

func (f *tableFlags) register(fs *flag.FlagSet) {
	fs.BoolVar(&f.dsm, "dsm", false, "store/open generated tables column-major (DSM): queries pay only for the columns they read")
	fs.BoolVar(&f.compress, "compress", false, "store/open generated tables with extents compressed under per-column schemes (requires -dsm)")
	fs.Int64Var(&f.rows, "rows", 1_500_000, "rows per generated table")
	fs.Int64Var(&f.tpc, "tuples-per-chunk", 32768, "tuples per chunk of a generated table")
	fs.Uint64Var(&f.seed, "seed", 1, "generator seed (and workload seed, where the subcommand runs one)")
}

func (f tableFlags) format() engine.Format {
	if f.dsm {
		return engine.DSM
	}
	return engine.NSM
}

// name is the file-name stem of cmd's generated tables: one per shape.
func (f tableFlags) name(cmd string) string {
	shape := f.format().String()
	if f.compress {
		shape += "c"
	}
	return fmt.Sprintf("coopscan-%s-%s-%d-%d-%d", cmd, shape, f.rows, f.tpc, f.seed)
}

// generated names cmd's n generated tables under dir ($TMPDIR when empty).
func (f tableFlags) generated(cmd, dir string, n int) []string {
	if dir == "" {
		dir = os.TempDir()
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("%s-t%d.tbl", f.name(cmd), i))
	}
	return paths
}

// create generates one table file, seeded seed+offset.
func (f tableFlags) create(path string, offset uint64) (*engine.TableFile, error) {
	if f.compress {
		return engine.CreateCompressed(path, f.rows, f.tpc, f.seed+offset)
	}
	return engine.CreateFormat(path, f.format(), f.rows, f.tpc, f.seed+offset)
}

// open opens the tables at paths, generating the missing ones (table i
// seeded seed+i); a mistake in the shape flags or a failing file ends the
// process. The caller closes the tables.
func (f tableFlags) open(cmd string, paths []string) []*engine.TableFile {
	if f.compress && !f.dsm {
		exit(cmd, 2, errors.New("-compress requires -dsm (compressed extents are column-major)"))
	}
	tfs := make([]*engine.TableFile, len(paths))
	for i, path := range paths {
		tf, err := f.openOrCreate(path, uint64(i))
		if err != nil {
			exit(cmd, 1, err)
		}
		tfs[i] = tf
	}
	return tfs
}

// openOrCreate opens the table file, generating it only when the path does
// not exist yet. An existing file that fails to open (one written in an
// older format version included: the error says to remove and regenerate
// it), or that stores the other physical format (including compressed vs
// raw), is an error — never overwritten (the user may have pointed -file at
// something else entirely).
func (f tableFlags) openOrCreate(path string, offset uint64) (*engine.TableFile, error) {
	if _, err := os.Stat(path); err == nil {
		tf, err := engine.Open(path)
		if err != nil {
			return nil, err
		}
		if tf.Format() != f.format() || tf.Compressed() != f.compress {
			tf.Close()
			want := f.format().String()
			if f.compress {
				want += " compressed"
			}
			return nil, fmt.Errorf("%s stores %s, want %s (pick another -file or remove it)", path, describeFormat(tf), want)
		}
		return tf, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	fmt.Printf("generating %s ...\n", path)
	return f.create(path, offset)
}

func closeAll(tfs []*engine.TableFile) {
	for _, tf := range tfs {
		tf.Close()
	}
}

// serverFlags shape the engine.Server a subcommand runs and the faults
// injected under it: live, multi and serve all register this one block,
// differing only in the -policy and -buffer-mb defaults.
type serverFlags struct {
	policy    string
	bufferMB  int64
	inflight  int
	readMBs   int64
	prune     bool
	faultPlan string
	faultSeed uint64
}

func (f *serverFlags) register(fs *flag.FlagSet, policy string, bufferMB int64) {
	policies := "normal|attach|elevator|relevance"
	if policy == "all" {
		policies += "|all"
	}
	fs.StringVar(&f.policy, "policy", policy, policies)
	fs.Int64Var(&f.bufferMB, "buffer-mb", bufferMB, "buffer budget in MiB, shared by all tables and arbitrated between them")
	fs.IntVar(&f.inflight, "inflight", 4, "bounded in-flight load queue depth (1 = serial loads)")
	fs.Int64Var(&f.readMBs, "read-mbps", 0, "per-load-stream device bandwidth model in MiB/s (0 = page-cache speed)")
	fs.BoolVar(&f.prune, "prune", false, "register Q6 scans with predicate ranges so zonemaps prune non-matching chunks (every table file carries zonemaps)")
	fs.StringVar(&f.faultPlan, "fault-plan", "", "injected-fault plan, e.g. transient=0.2,short=0.05,corrupt=0.01,latency=0.1:2ms,bad=OFF:LEN (empty = no faults)")
	fs.Uint64Var(&f.faultSeed, "fault-seed", 1, "fault injection seed (per-table injectors seeded seed+i; same plan+seed injects identically)")
}

// config is the engine.ServerConfig the flags describe, for one policy.
func (f *serverFlags) config(pol core.Policy) engine.ServerConfig {
	return engine.ServerConfig{
		Policy:        pol,
		BufferBytes:   f.bufferMB << 20,
		InFlightDepth: f.inflight,
		ReadBandwidth: f.readMBs << 20,
	}
}

// inject installs the -fault-plan, when it injects anything, as one
// deterministic injector per table (seeded fault-seed+i). It returns nil
// injectors for an empty plan; a plan that does not parse is a command-line
// mistake.
func (f *serverFlags) inject(cmd string, tfs []*engine.TableFile) []*iofault.Injector {
	plan, err := iofault.ParsePlan(f.faultPlan)
	if err != nil {
		exit(cmd, 2, err)
	}
	if plan.Zero() {
		return nil
	}
	injs := make([]*iofault.Injector, len(tfs))
	for i, tf := range tfs {
		i := i
		tf.WrapReader(func(r io.ReaderAt) io.ReaderAt {
			injs[i] = iofault.New(r, plan, f.faultSeed+uint64(i))
			return injs[i]
		})
	}
	return injs
}

// exit ends the process over a failure of subcommand cmd: status 2 for a
// command-line mistake, 1 for anything that went wrong while running.
func exit(cmd string, code int, err error) {
	fmt.Fprintf(os.Stderr, "coopscan %s: %v\n", cmd, err)
	os.Exit(code)
}

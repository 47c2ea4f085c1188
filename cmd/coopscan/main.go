// Command coopscan regenerates the tables and figures of "Cooperative
// Scans: Dynamic Bandwidth Sharing in a DBMS" (Zukowski et al., VLDB 2007)
// over the repository's simulated substrate.
//
// Usage:
//
//	coopscan -exp table2           # the paper's headline NSM comparison
//	coopscan -exp all -quick       # every experiment, scaled down
//	coopscan -list                 # enumerate experiments
//
// The live subcommand runs the wall-clock engine over a real table file
// instead of the simulator, and multi serves several tables from one
// shared, arbitrated buffer budget:
//
//	coopscan live                  # 8 streams, all policies, tmp table file
//	coopscan live -policy relevance -streams 16 -buffer-mb 32
//	coopscan live -prune           # zonemap pruning (every table file carries zonemaps)
//	coopscan live -dsm -compress -prune   # the same over compressed extents
//	coopscan multi                 # 2 tables × 8 streams, shared budget
//	coopscan multi -tables 3 -inflight 8 -buffer-mb 48
//
// The create subcommand pre-generates a table file (NSM, DSM, or DSM
// compressed under per-column schemes; all three carry zonemaps):
//
//	coopscan create -file lineitem.tbl -dsm -compress
//
// The serve subcommand exposes the engine over an HTTP/2 chunked-streaming
// front-end with admission control, SLO tiers, deadlines and graceful
// drain; scan is its minimal NDJSON client:
//
//	coopscan serve -max-live 32 -policy relevance
//	coopscan scan -table 'lineitem-live#0' -q6 -tier interactive
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"coopscan/internal/experiments"
)

// experiment couples a name with full-scale and quick runners.
type experiment struct {
	name  string
	descr string
	full  func() fmt.Stringer
	quick func() fmt.Stringer
}

func catalogue() []experiment {
	return []experiment{
		{"fig2", "P(useful chunk) vs query demand (analytic, formula 1)",
			func() fmt.Stringer { return experiments.Fig2() },
			func() fmt.Stringer { return experiments.Fig2() }},
		{"table2", "NSM/PAX policy comparison (16 streams × 4 queries)",
			func() fmt.Stringer { return experiments.Table2(experiments.DefaultTable2()) },
			func() fmt.Stringer { return experiments.Table2(experiments.QuickTable2()) }},
		{"fig4", "disk accesses over time per policy",
			func() fmt.Stringer { return experiments.Fig4(experiments.DefaultTable2()) },
			func() fmt.Stringer { return experiments.Fig4(experiments.QuickTable2()) }},
		{"fig5", "query-mix scatter: policies vs relevance",
			func() fmt.Stringer { return experiments.Fig5(experiments.DefaultFig5()) },
			func() fmt.Stringer { return experiments.Fig5(experiments.QuickFig5()) }},
		{"fig6", "buffer capacity sweep (CPU- and I/O-intensive sets)",
			func() fmt.Stringer { return experiments.Fig6(experiments.DefaultFig6()) },
			func() fmt.Stringer { return experiments.Fig6(experiments.QuickFig6()) }},
		{"fig7", "concurrency sweep (1-32 queries, 5/20/50% scans)",
			func() fmt.Stringer { return experiments.Fig7(experiments.DefaultFig7()) },
			func() fmt.Stringer { return experiments.Fig7(experiments.QuickFig7()) }},
		{"fig8", "relevance scheduling cost vs chunk count",
			func() fmt.Stringer { return experiments.Fig8(experiments.DefaultFig8()) },
			func() fmt.Stringer { return experiments.Fig8(experiments.QuickFig8()) }},
		{"schedscale", "relevance scheduling cost vs queries (to 512) and chunk count",
			func() fmt.Stringer { return experiments.SchedScaling(experiments.DefaultSchedScaling()) },
			func() fmt.Stringer { return experiments.SchedScaling(experiments.QuickSchedScaling()) }},
		{"table3", "DSM policy comparison (compressed lineitem)",
			func() fmt.Stringer { return experiments.Table3(experiments.DefaultTable3()) },
			func() fmt.Stringer { return experiments.Table3(experiments.QuickTable3()) }},
		{"table4", "DSM column-overlap (synthetic 10-column table)",
			func() fmt.Stringer { return experiments.Table4(experiments.DefaultTable4()) },
			func() fmt.Stringer { return experiments.Table4(experiments.QuickTable4()) }},
		{"ablation", "design-choice ablations over the Table 2 workload",
			func() fmt.Stringer { return experiments.Ablation(experiments.DefaultAblation()) },
			func() fmt.Stringer { return experiments.Ablation(experiments.QuickAblation()) }},
	}
}

func main() {
	if len(os.Args) > 1 {
		switch cmd, args := os.Args[1], os.Args[2:]; cmd {
		case "create":
			runCreate(args)
			return
		case "live", "multi":
			runLive(cmd, args)
			return
		case "serve":
			runServe(args)
			return
		case "scan":
			runScanClient(args)
			return
		}
	}
	exp := flag.String("exp", "", "experiment to run (see -list), or 'all'")
	quick := flag.Bool("quick", false, "run the scaled-down configuration")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	cat := catalogue()
	if *list || *exp == "" {
		fmt.Println("experiments (pass -exp NAME, optionally -quick):")
		names := make([]string, 0, len(cat))
		byName := map[string]experiment{}
		for _, e := range cat {
			names = append(names, e.name)
			byName[e.name] = e
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-8s %s\n", n, byName[n].descr)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	ran := false
	for _, e := range cat {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		start := time.Now()
		var res fmt.Stringer
		if *quick {
			res = e.quick()
		} else {
			res = e.full()
		}
		fmt.Println(res.String())
		fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "coopscan: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
}

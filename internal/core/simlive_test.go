package core

import (
	"fmt"
	"math/rand"
	"testing"

	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// TestSimAndLiveABMsDecideIdentically is the standing sim↔live oracle: an
// ABM built by New (the constructor behind every experiment and the decision
// golden) and one built by NewLive (the constructor behind every served
// scan) are driven through the same seeded script under a shared manual
// clock, and must produce the same sequence of load decisions, vetoes,
// landings, chunk picks, eviction-pass outcomes and evicted parts. The
// script drives loads through IssueLoad tickets, the way the engine's
// scheduler does.
//
// A third run holds the ticket against the call sequence it replaced
// (refIssueLoad), so the oracle covers the load protocol and not only the
// decisions inside it.
func TestSimAndLiveABMsDecideIdentically(t *testing.T) {
	for _, pol := range Policies {
		for _, columnar := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/columnar=%v", pol, columnar), func(t *testing.T) {
				for seed := int64(0); seed < 8; seed++ {
					var layout storage.Layout = nsmTestLayout(24)
					bufChunks := int64(6)
					buf := layout.ChunkBytes(0, 0) * bufChunks
					if columnar {
						layout = dsmTestLayout(24, 4)
						buf = layout.ChunkBytes(0, storage.AllCols(4)) * bufChunks
					}
					cfg := Config{Policy: pol, BufferBytes: buf}
					clk := &stepClock{}
					// One chunk cost for all three: the simulated ABM would
					// derive its own from the disk, a live one from 1 GB/s.
					live := func() *ABM {
						a := NewLive(clk, layout, cfg)
						a.chunkCost = 0.01
						return a
					}

					env := sim.NewEnv()
					simABM := newSim(env, disk.New(env, disk.Params{Bandwidth: 50 << 20, SeekTime: 1e-3}), layout, cfg)
					simABM.clock = clk
					simABM.chunkCost = 0.01
					simTrace := runDecisionScript(t, simABM, clk, seed, ticketIssue)

					clk.now = 0
					liveTrace := runDecisionScript(t, live(), clk, seed, ticketIssue)
					clk.now = 0
					refTrace := runDecisionScript(t, live(), clk, seed, refIssueLoad)

					requireSameTrace(t, seed, "sim", simTrace, "live", liveTrace)
					requireSameTrace(t, seed, "old sequence", refTrace, "ticket", liveTrace)
					if len(simTrace) < 200 {
						t.Fatalf("seed %d: script produced only %d events", seed, len(simTrace))
					}
				}
			})
		}
	}
}

func requireSameTrace(t *testing.T, seed int64, an string, a []string, bn string, b []string) {
	t.Helper()
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			t.Fatalf("seed %d: traces diverge at event %d of %d/%d:\n  %s: %s\n  %s: %s",
				seed, i, len(a), len(b), an, at(a, i), bn, at(b, i))
		}
	}
}

// issueFunc is one way of issuing a load: like IssueLoad, it calls accept
// with the policy's proposal (if there is one) and returns the decision as
// issued and how to land it, or a nil land when nothing was issued.
type issueFunc func(a *ABM, accept func(LoadDecision) bool) (LoadDecision, func(abort bool))

// ticketIssue issues through the product's one load step.
func ticketIssue(a *ABM, accept func(LoadDecision) bool) (LoadDecision, func(abort bool)) {
	ld := a.IssueLoad(accept)
	if ld == nil {
		return LoadDecision{}, nil
	}
	return ld.Decision(), func(abort bool) {
		if abort {
			ld.Abort()
		} else {
			ld.Finish()
		}
	}
}

// refIssueLoad spells the call sequence every driver hand-rolled before the
// ticket existed, over the primitives it wrapped: decide, count the cold
// bytes, shield the chunk under assembly from the eviction pass on, commit,
// reserve, and land with the columns narrowed by hand to what the
// reservation marked. It is the reference IssueLoad is held against.
func refIssueLoad(a *ABM, accept func(LoadDecision) bool) (LoadDecision, func(abort bool)) {
	d, ok := a.strat.nextLoad()
	if !ok || !accept(d) {
		return d, nil
	}
	proposed := d.Cols
	a.markAssembling(d.Chunk, proposed)
	if need := a.coldBytesFor(d.Chunk, d.Cols); need > 0 && a.FreeBytes() < need {
		if !a.strat.EnsureSpace(need, d.Query) {
			a.unmarkAssembling(d.Chunk, proposed)
			return d, nil
		}
	}
	a.strat.commitLoad(d)
	d.Cols = a.beginLoad(d)
	return d, func(abort bool) {
		a.unmarkAssembling(d.Chunk, proposed)
		if abort {
			a.abortLoad(d)
		} else {
			a.finishLoad(d, nil)
		}
	}
}

func at(trace []string, i int) string {
	if i < len(trace) {
		return trace[i]
	}
	return "<end of trace>"
}

// runDecisionScript drives a through a seeded sequence of registrations,
// load issues (some vetoed), completions (some aborted), deliveries and
// forced eviction passes, and returns every decision it observed plus the
// closing I/O counters.
func runDecisionScript(t *testing.T, a *ABM, clk *stepClock, seed int64, issue issueFunc) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*6151 + 3))
	pol := a.Policy()
	numChunks := a.layout.NumChunks()
	var trace []string
	a.SetEvictHook(func(chunk, col int, _ any) {
		trace = append(trace, fmt.Sprintf("evict c%d/%d", chunk, col))
	})

	type stream struct {
		q      *Query
		pinned int
	}
	var streams []*stream
	var inflight []func(abort bool)
	registered := 0

	for step := 0; step < 600; step++ {
		clk.now += rng.Float64() * 0.02
		switch op := rng.Intn(10); {
		case op < 1 || len(streams) == 0: // register
			if len(streams) >= 6 {
				continue
			}
			s := rng.Intn(numChunks)
			e := s + 1 + rng.Intn(numChunks-s)
			var cols storage.ColSet
			if a.layout.Columnar() {
				cols = storage.Cols(rng.Intn(4), rng.Intn(4))
			}
			q := a.NewQuery(fmt.Sprintf("q%d", registered), rangeOf(s, e), cols)
			if rng.Intn(3) == 0 {
				q.SetWeight(4)
			}
			registered++
			a.Register(q)
			streams = append(streams, &stream{q: q, pinned: -1})
		case op < 4: // issue a load, as the engine's scheduler does
			if len(inflight) >= 3 {
				continue
			}
			veto := rng.Intn(12) == 0
			var proposed *LoadDecision
			d, land := issue(a, func(d LoadDecision) bool { proposed = &d; return !veto })
			switch {
			case proposed == nil:
				trace = append(trace, "load none")
			case veto:
				trace = append(trace, fmt.Sprintf("load c%d %v for %s: vetoed", proposed.Chunk, proposed.Cols, proposed.Query.Name))
			case land == nil:
				trace = append(trace, fmt.Sprintf("load c%d %v for %s: no space", proposed.Chunk, proposed.Cols, proposed.Query.Name))
			default:
				inflight = append(inflight, land)
				trace = append(trace, fmt.Sprintf("load c%d %v (proposed %v) for %s", d.Chunk, d.Cols, proposed.Cols, d.Query.Name))
			}
		case op < 6: // land a random in-flight load, now and then as a failure
			if len(inflight) == 0 {
				continue
			}
			i := rng.Intn(len(inflight))
			abort := rng.Intn(8) == 0
			inflight[i](abort)
			trace = append(trace, fmt.Sprintf("land #%d abort=%v", i, abort))
			inflight = append(inflight[:i], inflight[i+1:]...)
		case op < 9: // advance one stream a half-step: release, or pick and pin
			i := rng.Intn(len(streams))
			st := streams[i]
			if st.pinned >= 0 {
				a.Release(st.q, st.pinned)
				st.pinned = -1
				if st.q.Finished() {
					a.Finish(st.q)
					streams = append(streams[:i], streams[i+1:]...)
				}
				continue
			}
			c := pol.PickAvailable(st.q)
			trace = append(trace, fmt.Sprintf("pick %s c%d", st.q.Name, c))
			st.q.SetBlocked(c < 0)
			if c >= 0 {
				a.Pin(st.q, c, nil)
				st.pinned = c
			}
		default: // force an eviction pass on behalf of a random stream
			trigger := streams[rng.Intn(len(streams))].q
			need := a.FreeBytes() + a.UsedBytes()/3 + 1
			trace = append(trace, fmt.Sprintf("ensure %d for %s: %v", need, trigger.Name, pol.EnsureSpace(need, trigger)))
		}
		if step%25 == 0 {
			auditIncrementalState(t, a, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
	return append(trace, fmt.Sprintf("stats %+v", a.Stats()))
}

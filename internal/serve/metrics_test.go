package serve

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"strings"
	"testing"

	"coopscan/internal/engine"
	"coopscan/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the metrics exposition golden")

// TestMetricsExpositionGolden drives a deterministic session sequence
// through the front-end — one queued-then-expired deadline, one queued
// completion, one shed, one interactive completion — and compares the
// front-end's full Prometheus exposition byte-for-byte against the golden
// file, followed by the two engine families the sequence pins exactly: the
// receipt sums, all computed by the first completed session over the
// four-chunk table and all reused by the second, which finds it resident;
// and what the chunks' bounds decided for the Q6 kernel of that second
// session, the only one that folds the aggregate — the table's seven years
// in four chunks put two of them past the predicate's year and none inside
// it. (The engine's other families carry wall-clock histograms.)
func TestMetricsExpositionGolden(t *testing.T) {
	tf := newTestTable(t, 4_000, 1000, 32)
	reg, engReg := obs.NewRegistry(), obs.NewRegistry()
	fx := newFixture(t, engine.ServerConfig{Obs: engReg}, Config{MaxLive: 1, MaxQueue: 1, Obs: reg}, tf)
	table := fx.eng.TableName(0)

	// Hold the only live slot via the gate directly, so the HTTP sessions
	// below queue/shed deterministically.
	if _, err := fx.f.gate.Admit(context.Background(), TierBatch); err != nil {
		t.Fatal(err)
	}

	// A: queues, then its deadline expires in the queue (504).
	if _, err := RunScan(context.Background(), nil, fx.url, ScanParams{
		Table: table, Name: "expired", DeadlineMS: 40,
	}, nil); err == nil || !strings.Contains(err.Error(), "deadline exceeded in admission queue") {
		t.Fatalf("queued-deadline err = %v", err)
	}
	waitFor(t, func() bool { return fx.f.gate.status().queued == 0 })

	// B: queues and eventually completes once the slot frees.
	bDone := make(chan error, 1)
	go func() {
		_, err := RunScan(context.Background(), nil, fx.url, ScanParams{Table: table, Name: "patient"}, nil)
		bDone <- err
	}()
	waitFor(t, func() bool { return fx.f.gate.status().queued == 1 })

	// C: queue full — shed, typed.
	if _, err := RunScan(context.Background(), nil, fx.url, ScanParams{Table: table, Name: "unlucky"}, nil); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow err = %v, want ErrShed", err)
	}

	// Free the held slot: B is promoted and completes.
	fx.f.gate.Release()
	if err := <-bDone; err != nil {
		t.Fatalf("queued session: %v", err)
	}

	// D: interactive session straight through the free slot. B's client
	// returns at the trailer line; its handler gives the slot back a moment
	// later (after joining its heartbeat goroutine), so wait for that, or D
	// is sometimes counted as queued.
	waitFor(t, func() bool { return fx.f.gate.status().live == 0 })
	if _, err := RunScan(context.Background(), nil, fx.url, ScanParams{
		Table: table, Name: "vip", Tier: TierInteractive, AggQ6: true,
	}, nil); err != nil {
		t.Fatalf("interactive session: %v", err)
	}

	// Likewise D's handler may still hold its slot (the live gauge).
	waitFor(t, func() bool { return fx.f.gate.status().live == 0 })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var eb strings.Builder
	if err := engReg.WritePrometheus(&eb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(eb.String(), "\n") {
		if strings.Contains(line, "coopscan_receipt_crcs_total") || strings.Contains(line, "coopscan_kernel_chunks_total") {
			sb.WriteString(line)
		}
	}
	got := sb.String()
	const goldenPath = "testdata/metrics_golden.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The same counters surface in /statusz's sessions section.
	resp, err := http.Get(fx.url + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Engine   engine.Status  `json:"engine"`
		Sessions SessionsStatus `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	if tables := status.Engine.Tables; len(tables) != 1 || tables[0].ReceiptCRCsComputed != 16 || tables[0].ReceiptCRCsReused != 16 {
		t.Errorf("statusz engine tables %+v, want one with 16 receipt sums computed and 16 reused", tables)
	} else if tb := tables[0]; tb.KernelChunksNone != 2 || tb.KernelChunksDateAll != 0 || tb.KernelChunksSome != 2 {
		t.Errorf("statusz engine table %+v, want 2 kernel chunks decided none, 0 date_all, 2 some", tb)
	}
	ss := status.Sessions
	if ss.MaxLive != 1 || ss.Live != 0 || ss.PeakLive != 1 {
		t.Errorf("sessions status %+v, want max_live=1 live=0 peak_live=1", ss)
	}
	b, ti := ss.Tiers["batch"], ss.Tiers["interactive"]
	if b.Admitted != 1 || b.Queued != 2 || b.Shed != 1 || b.DeadlineExceeded != 1 || b.Completed != 1 {
		t.Errorf("batch tier %+v, want admitted=1 queued=2 shed=1 deadline=1 completed=1", b)
	}
	if ti.Admitted != 1 || ti.Completed != 1 {
		t.Errorf("interactive tier %+v, want admitted=completed=1", ti)
	}
	fx.shutdown(t, context.Background())
}

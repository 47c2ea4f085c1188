package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// admitAsync runs Admit in a goroutine and returns the channel its result
// lands on.
func admitAsync(g *gate, ctx context.Context, tier Tier) chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx, tier)
		ch <- err
	}()
	return ch
}

func waitDepth(t *testing.T, g *gate, tier Tier, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g.status().depth[tier] == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tier %v queue depth never reached %d", tier, want)
}

func TestGateCeilingAndShed(t *testing.T) {
	g := newGate(2, 1)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if waited, err := g.Admit(ctx, TierBatch); err != nil || waited {
			t.Fatalf("admission %d: waited=%v err=%v", i, waited, err)
		}
	}
	queued := admitAsync(g, ctx, TierBatch)
	waitDepth(t, g, TierBatch, 1)

	// Queue full: the next request sheds typed with a retry-after hint.
	_, err := g.Admit(ctx, TierBatch)
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrShed) {
		t.Fatalf("overflow err = %v, want ShedError", err)
	}
	if shed.RetryAfter < minRetryAfter || shed.RetryAfter > maxRetryAfter {
		t.Fatalf("retry-after %v outside clamp [%v, %v]", shed.RetryAfter, minRetryAfter, maxRetryAfter)
	}

	g.Release()
	if err := <-queued; err != nil {
		t.Fatalf("promoted waiter err = %v", err)
	}
	st := g.status()
	if st.live != 2 || st.queued != 0 || st.peak != 2 {
		t.Fatalf("status %+v, want live=2 queued=0 peak=2", st)
	}
	g.Release()
	g.Release()
	if st := g.status(); st.live != 0 {
		t.Fatalf("live %d after all releases, want 0", st.live)
	}
}

// TestGatePromotesInteractiveFirst: the interactive queue drains before the
// batch queue even when batch sessions arrived earlier.
func TestGatePromotesInteractiveFirst(t *testing.T) {
	g := newGate(1, 4)
	ctx := context.Background()
	if _, err := g.Admit(ctx, TierBatch); err != nil {
		t.Fatal(err)
	}
	batch := admitAsync(g, ctx, TierBatch)
	waitDepth(t, g, TierBatch, 1)
	inter := admitAsync(g, ctx, TierInteractive)
	waitDepth(t, g, TierInteractive, 1)

	g.Release()
	if err := <-inter; err != nil {
		t.Fatalf("interactive waiter err = %v", err)
	}
	select {
	case err := <-batch:
		t.Fatalf("batch waiter admitted before interactive released (err=%v)", err)
	default:
	}
	g.Release()
	if err := <-batch; err != nil {
		t.Fatalf("batch waiter err = %v", err)
	}
	g.Release()
}

// TestGateQueueCancellation: a waiter whose context expires leaves the
// queue; its abandoned slot is skipped at promotion time.
func TestGateQueueCancellation(t *testing.T) {
	g := newGate(1, 4)
	bg := context.Background()
	if _, err := g.Admit(bg, TierBatch); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	doomed := admitAsync(g, ctx, TierBatch)
	waitDepth(t, g, TierBatch, 1)
	survivor := admitAsync(g, bg, TierBatch)
	waitDepth(t, g, TierBatch, 2)

	cancel()
	if err := <-doomed; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	if st := g.status(); st.queued != 1 {
		t.Fatalf("queued %d after cancellation, want 1", st.queued)
	}
	g.Release()
	if err := <-survivor; err != nil {
		t.Fatalf("survivor err = %v (cancelled waiter stole the slot?)", err)
	}
	g.Release()
}

// TestGateDrain: draining fails queued waiters typed and rejects new
// arrivals, while live sessions release normally.
func TestGateDrain(t *testing.T) {
	g := newGate(1, 4)
	ctx := context.Background()
	if _, err := g.Admit(ctx, TierBatch); err != nil {
		t.Fatal(err)
	}
	queued := admitAsync(g, ctx, TierInteractive)
	waitDepth(t, g, TierInteractive, 1)

	g.Drain()
	if err := <-queued; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter err = %v, want ErrDraining", err)
	}
	if _, err := g.Admit(ctx, TierBatch); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain admit err = %v, want ErrDraining", err)
	}
	g.Release()
	if st := g.status(); st.live != 0 || st.queued != 0 || !st.draining {
		t.Fatalf("drained status %+v", st)
	}
}

// TestGateRetryAfterTracksDrainRate: with an observed release cadence, the
// hint scales with queue length and stays inside the clamps.
func TestGateRetryAfterTracksDrainRate(t *testing.T) {
	g := newGate(1, 8)
	g.mu.Lock()
	g.ewma = 200 * time.Millisecond
	g.queued = 3
	if got, want := g.retryAfterLocked(), 800*time.Millisecond; got != want {
		g.mu.Unlock()
		t.Fatalf("retry-after %v, want %v", got, want)
	}
	g.ewma = time.Microsecond
	if got := g.retryAfterLocked(); got != minRetryAfter {
		g.mu.Unlock()
		t.Fatalf("retry-after %v, want floor %v", got, minRetryAfter)
	}
	g.ewma = time.Hour
	if got := g.retryAfterLocked(); got != maxRetryAfter {
		g.mu.Unlock()
		t.Fatalf("retry-after %v, want ceiling %v", got, maxRetryAfter)
	}
	g.mu.Unlock()
}

// TestGateCancelledWaitersAreBounded holds the ceiling with no release — the
// saturated state where nothing reaches popLocked — and runs 10 000
// queue-then-cancel admissions around three waiters that stay. The queue
// slice must never hold more than maxQueue waiters (it used to keep every
// cancelled one), and the survivors must keep their FIFO order.
func TestGateCancelledWaitersAreBounded(t *testing.T) {
	for _, tier := range []Tier{TierBatch, TierInteractive} {
		t.Run(tier.String(), func(t *testing.T) {
			const maxQueue = 4
			g := newGate(1, maxQueue)
			if _, err := g.Admit(context.Background(), TierBatch); err != nil {
				t.Fatal(err)
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			var survivors []chan error
			storm := func(n int) {
				for i := 0; i < n; i++ {
					if waited, err := g.Admit(cancelled, tier); !waited || !errors.Is(err, context.Canceled) {
						t.Fatalf("cancelled admission: waited=%v err=%v", waited, err)
					}
					g.mu.Lock()
					got := len(g.queues[tier])
					g.mu.Unlock()
					if got > maxQueue {
						t.Fatalf("queue slice holds %d waiters with %d live, bound %d", got, len(survivors), maxQueue)
					}
				}
			}
			for _, n := range []int{3000, 3000, 4000} {
				survivors = append(survivors, admitAsync(g, context.Background(), tier))
				waitDepth(t, g, tier, len(survivors))
				storm(n)
			}
			if st := g.status(); st.queued != len(survivors) || st.depth[tier] != len(survivors) {
				t.Fatalf("status %+v, want %d queued", st, len(survivors))
			}
			// Each release promotes exactly the oldest survivor.
			for i, ch := range survivors {
				g.Release()
				if err := <-ch; err != nil {
					t.Fatalf("survivor %d: %v", i, err)
				}
				for j := i + 1; j < len(survivors); j++ {
					select {
					case err := <-survivors[j]:
						t.Fatalf("survivor %d decided (%v) before survivor %d's turn", j, err, i+1)
					default:
					}
				}
			}
		})
	}
}

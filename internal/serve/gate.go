// Package serve is the HTTP streaming front-end over the live cooperative
// scan engine: admission control with SLO tiers, per-request deadlines,
// heartbeat/stall handling, graceful drain and runtime table management.
//
// The front-end keeps the paper's economics visible at the protocol edge:
// the engine multiplexes any number of concurrent scans over one shared
// buffer, but each live scan still costs a goroutine, a query registration
// and a share of scheduler work — so the gate bounds how many sessions are
// live at once, queues a bounded overflow per SLO tier, and sheds the rest
// with a retry-after hint derived from the observed session drain rate.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Tier is a session's SLO class. It maps to admission priority (queued
// interactive sessions are promoted before batch ones) and to the relevance
// policy's starvation weight (interactive scans are ranked as if they had
// remaining/weight chunks left, so batch floods cannot starve them).
type Tier int

const (
	// TierBatch is the default tier: weight 1, exactly the paper's
	// unweighted relevance formula.
	TierBatch Tier = iota
	// TierInteractive is the latency-sensitive tier: promoted first out of
	// the admission queue and scheduled with interactiveWeight.
	TierInteractive
	numTiers
)

// interactiveWeight is the relevance starvation weight of interactive
// sessions: the scheduler treats an interactive scan with 8w chunks left
// like a batch scan with w left.
const interactiveWeight = 8

// ParseTier maps the wire form ("interactive", "batch", or empty for
// batch) to a Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "batch":
		return TierBatch, nil
	case "interactive":
		return TierInteractive, nil
	}
	return 0, fmt.Errorf("serve: unknown tier %q (want interactive or batch)", s)
}

func (t Tier) String() string {
	if t == TierInteractive {
		return "interactive"
	}
	return "batch"
}

// Weight returns the tier's relevance starvation weight, the value fed to
// engine.ScanRequest.Weight.
func (t Tier) Weight() float64 {
	if t == TierInteractive {
		return interactiveWeight
	}
	return 1
}

var (
	// ErrShed is wrapped by every ShedError: the session was rejected
	// because both the live ceiling and the wait queue were full.
	ErrShed = errors.New("serve: admission queue full")
	// ErrDraining rejects sessions (new and queued) once Shutdown begins.
	ErrDraining = errors.New("serve: server draining")
)

// ShedError is the typed 429 response: the gate could neither admit nor
// queue the session. RetryAfter is the gate's estimate of when a retry
// could be admitted, derived from the EWMA of session completion intervals
// and the current queue length.
type ShedError struct {
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: admission queue full, retry after %v", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrShed) hold.
func (e *ShedError) Unwrap() error { return ErrShed }

// retry-after clamps: below the floor a retry storms the gate, above the
// ceiling the hint is uselessly pessimistic; the default covers the cold
// start before any session has completed.
const (
	minRetryAfter     = 100 * time.Millisecond
	maxRetryAfter     = 30 * time.Second
	defaultRetryAfter = time.Second
)

// waiter is one session parked in the admission queue. ch is buffered so
// the promoter never blocks on a waiter that is concurrently cancelling;
// done marks the waiter decided (admitted or failed) and out of its queue,
// so a cancellation that lost the race takes the decision from ch.
type waiter struct {
	tier Tier
	ch   chan error
	done bool
}

// gate is the admission controller: at most maxLive sessions run at once,
// at most maxQueue more wait (FIFO within a tier, interactive before
// batch), and everything beyond that is shed with a retry-after hint.
type gate struct {
	mu       sync.Mutex
	maxLive  int
	maxQueue int
	live     int
	peak     int
	draining bool
	queues   [numTiers][]*waiter // undecided waiters only, FIFO
	queued   int                 // waiters over all queues

	// ewma smooths the interval between Release calls — the session drain
	// rate the retry-after hint is derived from.
	ewma        time.Duration
	lastRelease time.Time

	// notify, when set, observes every occupancy transition under mu with
	// the new live count and queue depths (the front-end mirrors them into
	// gauges). Must not call back into the gate.
	notify func(live int, depth [numTiers]int)
}

func newGate(maxLive, maxQueue int) *gate {
	return &gate{maxLive: maxLive, maxQueue: maxQueue}
}

func (g *gate) changedLocked() {
	if g.notify != nil {
		g.notify(g.live, g.depthLocked())
	}
}

func (g *gate) depthLocked() (depth [numTiers]int) {
	for t, q := range g.queues {
		depth[t] = len(q)
	}
	return depth
}

// Admit blocks until the session may run (returns nil; the caller must
// Release), the gate sheds it (*ShedError), the server drains
// (ErrDraining), or ctx expires in the queue (ctx.Err()). waited reports
// whether the session spent time in the queue.
func (g *gate) Admit(ctx context.Context, tier Tier) (waited bool, err error) {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return false, ErrDraining
	}
	if g.live < g.maxLive {
		g.live++
		if g.live > g.peak {
			g.peak = g.live
		}
		g.changedLocked()
		g.mu.Unlock()
		return false, nil
	}
	if g.queued >= g.maxQueue {
		e := &ShedError{RetryAfter: g.retryAfterLocked()}
		g.mu.Unlock()
		return false, e
	}
	w := &waiter{tier: tier, ch: make(chan error, 1)}
	g.queues[tier] = append(g.queues[tier], w)
	g.queued++
	g.changedLocked()
	g.mu.Unlock()

	select {
	case err := <-w.ch:
		return true, err
	case <-ctx.Done():
		g.mu.Lock()
		if w.done {
			// Raced with a promotion or drain: the decision already left
			// on ch. An admission here still counts (the caller must
			// Release); its cancelled ctx fails the scan immediately.
			g.mu.Unlock()
			return true, <-w.ch
		}
		// Leave the queue now: a saturated gate nobody releases never
		// reaches popLocked, and maxQueue bounds only what is counted.
		g.queues[tier] = slices.DeleteFunc(g.queues[tier], func(x *waiter) bool { return x == w })
		g.queued--
		g.changedLocked()
		g.mu.Unlock()
		return true, ctx.Err()
	}
}

// Release returns one live slot, folds the inter-release interval into the
// drain-rate EWMA, and promotes queued waiters into the freed capacity.
func (g *gate) Release() {
	g.mu.Lock()
	now := time.Now()
	if !g.lastRelease.IsZero() {
		dt := now.Sub(g.lastRelease)
		if g.ewma == 0 {
			g.ewma = dt
		} else {
			g.ewma = (4*g.ewma + dt) / 5
		}
	}
	g.lastRelease = now
	g.live--
	g.promoteLocked()
	g.changedLocked()
	g.mu.Unlock()
}

// promoteLocked admits queued waiters while capacity remains, interactive
// tier first, FIFO within a tier.
func (g *gate) promoteLocked() {
	for g.live < g.maxLive {
		w := g.popLocked()
		if w == nil {
			return
		}
		w.done = true
		g.live++
		if g.live > g.peak {
			g.peak = g.live
		}
		w.ch <- nil
	}
}

// popLocked removes and returns the highest-priority waiter.
func (g *gate) popLocked() *waiter {
	for t := int(numTiers) - 1; t >= 0; t-- {
		if len(g.queues[t]) > 0 {
			w := g.queues[t][0]
			g.queues[t][0] = nil
			g.queues[t] = g.queues[t][1:]
			g.queued--
			return w
		}
	}
	return nil
}

// Drain stops admissions permanently and fails every queued waiter with
// ErrDraining. Live sessions are untouched; they drain through Release.
func (g *gate) Drain() {
	g.mu.Lock()
	g.draining = true
	for t := range g.queues {
		for _, w := range g.queues[t] {
			w.done = true
			w.ch <- ErrDraining
		}
		g.queues[t] = nil
	}
	g.queued = 0
	g.changedLocked()
	g.mu.Unlock()
}

// retryAfterLocked estimates when a shed request could next be admitted:
// every queued session must drain ahead of it, at one slot per EWMA
// release interval.
func (g *gate) retryAfterLocked() time.Duration {
	est := defaultRetryAfter
	if g.ewma > 0 {
		est = g.ewma * time.Duration(g.queued+1)
	}
	if est < minRetryAfter {
		est = minRetryAfter
	}
	if est > maxRetryAfter {
		est = maxRetryAfter
	}
	return est
}

// gateStatus is a consistent snapshot for /statusz.
type gateStatus struct {
	live     int
	peak     int
	queued   int
	depth    [numTiers]int
	draining bool
}

func (g *gate) status() gateStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	return gateStatus{live: g.live, peak: g.peak, queued: g.queued, depth: g.depthLocked(), draining: g.draining}
}

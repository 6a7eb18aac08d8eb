package server

import (
	"context"
	"errors"
	"sync"
)

// Admission errors.
var (
	// ErrRejected: the server is at max-concurrent-queries and the wait
	// queue is full. Clients see this as wire.CodeAdmission and should
	// back off; the query did no work.
	ErrRejected = errors.New("server: admission rejected: queue full")
	// ErrDraining: the server is shutting down and admits no new work.
	ErrDraining = errors.New("server: draining")
)

// admission is the server's two-stage admission controller: a semaphore
// of maxConcurrent run slots fronted by a bounded wait queue. A query
// either takes a slot immediately, waits in the queue for one, or — when
// the queue is at queueDepth — is rejected outright, so a burst beyond
// the server's capacity degrades into fast typed rejections instead of
// unbounded goroutine pileup (load shedding, not load queueing).
type admission struct {
	slots      chan struct{} // buffered; one token per running query
	queueDepth int

	mu     sync.Mutex
	queued int
}

// newAdmission creates a controller with maxConcurrent (>= 1) run slots
// and a wait queue of queueDepth (>= 0); Config.withDefaults sees to both.
func newAdmission(maxConcurrent, queueDepth int) *admission {
	return &admission{
		slots:      make(chan struct{}, maxConcurrent),
		queueDepth: queueDepth,
	}
}

// acquire takes a run slot. It returns nil when admitted, ErrRejected
// when the queue is full, ctx.Err() when the caller gave up waiting, or
// ErrDraining when the server started draining first. queuedFn, when
// non-nil, is called once if the query had to wait — the hook for the
// queued-queries counter.
func (a *admission) acquire(ctx context.Context, drain <-chan struct{}, queuedFn func()) error {
	select {
	case a.slots <- struct{}{}:
		return nil // free slot, no queueing
	default:
	}

	a.mu.Lock()
	if a.queued >= a.queueDepth {
		a.mu.Unlock()
		return ErrRejected
	}
	a.queued++
	a.mu.Unlock()
	if queuedFn != nil {
		queuedFn()
	}
	defer func() {
		a.mu.Lock()
		a.queued--
		a.mu.Unlock()
	}()

	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-drain:
		return ErrDraining
	}
}

// release returns a run slot.
func (a *admission) release() { <-a.slots }

// running reports the queries currently holding a slot.
func (a *admission) running() int { return len(a.slots) }

// waiting reports the queries parked in the wait queue.
func (a *admission) waiting() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

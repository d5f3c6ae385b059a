// Package admit is the bounded admission layer avrd and avrrouter
// share: a fixed number of worker slots, a bounded queue of requests
// waiting for one, and the backpressure answers — 429 with a
// queue-derived Retry-After when the queue is full (shed immediately),
// 503 when the wait outlives the queue timeout or the request.
package admit

import (
	"context"
	"errors"
	"expvar"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"avr/internal/trace"
)

// ErrQueueFull reports an arrival refused because the queue is at
// capacity.
var ErrQueueFull = errors.New("admit: queue full")

// Gate is one service's admission layer. All methods are safe for
// concurrent use.
type Gate struct {
	// slots is the worker semaphore: holding a token = executing.
	slots chan struct{}
	// queued counts requests waiting for a token; bounded by depth.
	queued   atomic.Int64
	depth    int64
	timeout  time.Duration
	name     string
	admitted *expvar.Int
	shed     *expvar.Int
}

// New creates a gate with workers slots and a queue depth deep whose
// waits last at most timeout. name labels the refusal messages ("codec
// queue full, retry later"); admitted and shed count the requests let
// through and refused.
func New(workers, depth int, timeout time.Duration, name string, admitted, shed *expvar.Int) *Gate {
	return &Gate{
		slots: make(chan struct{}, workers), depth: int64(depth), timeout: timeout,
		name: name, admitted: admitted, shed: shed,
	}
}

// Acquire claims a worker slot, waiting in the bounded queue if none
// is free. It returns ErrQueueFull when the queue is at capacity and
// ctx.Err() when the wait outlives ctx. On nil return the caller must
// Release.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.queued.Add(1) > g.depth {
		g.queued.Add(-1)
		return ErrQueueFull
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot claimed by Acquire or Admit.
func (g *Gate) Release() { <-g.slots }

// Queued reports how many requests are waiting for a slot.
func (g *Gate) Queued() int64 { return g.queued.Load() }

// Admit runs the admission handshake for one request, attributing the
// wait to sp's StageQueue. True means the caller holds a slot and must
// Release it; false means the refusal (429 or 503) has been written and
// counted.
func (g *Gate) Admit(w http.ResponseWriter, r *http.Request, sp *trace.Span) bool {
	ctx, cancel := context.WithTimeout(r.Context(), g.timeout)
	defer cancel()
	qt := sp.Begin()
	err := g.Acquire(ctx)
	sp.End(trace.StageQueue, qt)
	if err == nil {
		g.admitted.Add(1)
		return true
	}
	g.shed.Add(1)
	if errors.Is(err, ErrQueueFull) {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfter(g.queued.Load(), g.depth, g.timeout)))
		http.Error(w, g.name+" queue full, retry later", http.StatusTooManyRequests)
	} else {
		http.Error(w, "timed out waiting for a "+g.name+" worker", http.StatusServiceUnavailable)
	}
	return false
}

// RetryAfter sizes the 429 Retry-After hint from queue occupancy: the
// hint scales linearly from 1s at an empty queue up to the queue
// timeout (rounded up to whole seconds) at a full one, so a lightly
// loaded service invites a fast retry while a saturated one pushes the
// herd back the full wait it would have spent queueing anyway.
func RetryAfter(queued, depth int64, timeout time.Duration) int {
	maxSecs := max(int(math.Ceil(timeout.Seconds())), 1)
	if depth <= 0 {
		return maxSecs
	}
	queued = min(max(queued, 0), depth)
	secs := int(math.Ceil(timeout.Seconds() * float64(queued) / float64(depth)))
	return min(max(secs, 1), maxSecs)
}

package main

import (
	"fmt"
	"math"
	"sync"

	"avr/internal/store"
)

// checker holds the write history of every key and decides which
// versions a read may legally return: the last write acknowledged before
// the read was sent, any write concurrent with that one, and any write
// concurrent with the read itself. A read must lie within the quantized
// t1 of one of them; a query must lie within its own error bound of the
// ground truth of one of them.
type checker struct {
	t1   float64
	keys []keyData

	mu     sync.Mutex
	hist   [][]write // per key, oldest first, at most histLen
	nextV  []uint32
	failed []string
}

// write is one put of a key: its version and the interval between the
// client sending it and receiving the acknowledgement (ack is pending
// until then, and stays pending forever if the put failed: a failed
// write may still have landed).
type write struct {
	ver        uint32
	start, ack int64
}

const (
	pending = math.MaxInt64
	histLen = 16
)

func newChecker(keys []keyData, t1 float64) *checker {
	return &checker{t1: t1, keys: keys, hist: make([][]write, len(keys)), nextV: make([]uint32, len(keys))}
}

// begin registers a new write of key starting at now and returns its
// version.
func (c *checker) begin(key int32, now int64) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.nextV[key]
	c.nextV[key]++
	h := append(c.hist[key], write{ver: v, start: now, ack: pending})
	if len(h) > histLen {
		h = h[len(h)-histLen:]
	}
	c.hist[key] = h
	return v
}

// ack records that the write of ver was acknowledged at now.
func (c *checker) ack(key int32, ver uint32, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.hist[key] {
		if c.hist[key][i].ver == ver {
			c.hist[key][i].ack = now
		}
	}
}

// candidates returns the versions a read of key sent at rs and answered
// at re may return.
func (c *checker) candidates(key int32, rs, re int64) []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hist[key]
	last := -1
	for i, w := range h {
		if w.ack < rs && (last < 0 || w.ack > h[last].ack) {
			last = i
		}
	}
	var out []uint32
	for i, w := range h {
		concurrentRead := w.start < re && w.ack > rs
		concurrentLast := last >= 0 && w.start < h[last].ack && w.ack > h[last].start
		if i == last || concurrentRead || concurrentLast {
			out = append(out, w.ver)
		}
	}
	return out
}

// fail records a correctness violation; the run fails at the end.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failed) < 20 {
		c.failed = append(c.failed, fmt.Sprintf(format, args...))
	} else {
		c.failed[len(c.failed)-1] = "... more violations"
	}
}

func (c *checker) violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.failed...)
}

// within reports whether got is version ver of kd to within t1 per
// value.
func within(kd *keyData, ver uint32, got []float64, t1 float64) bool {
	if len(got) != kd.values() {
		return false
	}
	tol := t1 * (1 + 1e-9)
	for i, g := range got {
		w := kd.value(i, ver)
		if !(math.Abs(g-w) <= tol*math.Abs(w)) {
			return false
		}
	}
	return true
}

// checkRead checks one get/mget value of key read over [rs, re].
func (c *checker) checkRead(key int32, rs, re int64, got []float64) {
	kd := &c.keys[key]
	cands := c.candidates(key, rs, re)
	for _, v := range cands {
		if within(kd, v, got, c.t1) {
			return
		}
	}
	c.fail("read of %s (%d values) matches none of versions %v within t1=%g", kd.name, len(got), cands, c.t1)
}

// truth is the exact answer a query must bound.
type truth struct {
	count         int64
	sum, min, max float64
	matches       int64 // values in [lo, hi]
}

func exactTruth(kd *keyData, ver uint32, lo, hi float64) truth {
	t := truth{count: int64(kd.values()), min: math.Inf(1), max: math.Inf(-1)}
	for i := 0; i < kd.values(); i++ {
		v := kd.value(i, ver)
		t.sum += v
		t.min = math.Min(t.min, v)
		t.max = math.Max(t.max, v)
		if lo <= v && v <= hi {
			t.matches++
		}
	}
	return t
}

// boundTol widens a reported bound by the comparison's float slack.
func boundTol(b float64) float64 { return b*(1+1e-9) + 1e-300 }

func aggregateOK(a store.AggregateResult, t truth) bool {
	if !a.Complete || a.Count != t.count {
		return false
	}
	if math.Abs(a.Sum-t.sum) > boundTol(a.ErrorBound)+1e-9*math.Abs(t.sum) {
		return false
	}
	if math.Abs(a.Mean-t.sum/float64(t.count)) > boundTol(a.MeanErrorBound)+1e-9*math.Abs(t.sum/float64(t.count)) {
		return false
	}
	slack := 1e-9*math.Abs(t.min) + 1e-300
	if a.Min > t.min+slack || t.min > a.Min+a.MinErrorBound+slack {
		return false
	}
	slack = 1e-9*math.Abs(t.max) + 1e-300
	return !(a.Max < t.max-slack || t.max < a.Max-a.MaxErrorBound-slack)
}

func filterOK(f store.FilterResult, t truth) bool {
	return f.Complete && f.MatchesMin <= t.matches && t.matches <= f.MatchesMax &&
		f.Matches-t.matches <= f.ErrorBound && t.matches-f.Matches <= f.ErrorBound
}

// checkAggregate / checkFilter check one query answer of key over
// [rs, re] against the ground truth of every candidate version.
func (c *checker) checkAggregate(key int32, rs, re int64, a store.AggregateResult) {
	kd := &c.keys[key]
	cands := c.candidates(key, rs, re)
	for _, v := range cands {
		if aggregateOK(a, exactTruth(kd, v, 0, 0)) {
			return
		}
	}
	c.fail("aggregate of %s (sum %g ± %g) matches none of versions %v", kd.name, a.Sum, a.ErrorBound, cands)
}

func (c *checker) checkFilter(key int32, rs, re int64, lo, hi float64, f store.FilterResult) {
	kd := &c.keys[key]
	cands := c.candidates(key, rs, re)
	for _, v := range cands {
		if filterOK(f, exactTruth(kd, v, lo, hi)) {
			return
		}
	}
	c.fail("filter of %s on [%g, %g] (%d ± %d) matches none of versions %v", kd.name, lo, hi, f.Matches, f.ErrorBound, cands)
}

package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phaseStats is what one open-loop phase measured.
type phaseStats struct {
	attempted  int
	failed     int
	lat        [numOps][]float64 // ms from intended send time, in schedule order; +Inf when failed
	lag        []float64         // ms the sender woke late for ops it waited for
	backlogMax int
	wire, raw  int64
	heapPeak   uint64
}

// runPhase drives ops open-loop: each op is due at its scheduled time,
// at most conns are in flight, and latency runs from the due time, so a
// stall charges every request queued behind it.
func runPhase(c *client, ops []op, conns int) *phaseStats {
	ps := &phaseStats{attempted: len(ops)}
	lat := make([]float64, len(ops)) // by schedule index; each written by one worker
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
	)
	t0 := now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			var lags []float64
			var wire, raw int64
			failed := 0
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					break
				}
				o := &ops[i]
				due := t0 + int64(o.at)
				if d := due - now(); d > 0 {
					time.Sleep(time.Duration(d))
					lags = append(lags, float64(now()-due)/1e6)
				}
				oc := c.do(o, due, &sc)
				ms := math.Inf(1)
				if oc.ok {
					ms = float64(oc.done-due) / 1e6
					wire += oc.wire
					raw += oc.raw
				} else {
					failed++
				}
				lat[i] = ms
			}
			mu.Lock()
			ps.lag = append(ps.lag, lags...)
			ps.wire += wire
			ps.raw += raw
			ps.failed += failed
			mu.Unlock()
		}()
	}

	// The sampler tracks the backlog (arrivals due but not yet sent) and
	// the heap until every worker is done.
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			el := time.Duration(now() - t0)
			due := sort.Search(len(ops), func(i int) bool { return ops[i].at > el })
			sent := int(min(next.Load(), int64(len(ops))))
			if b := due - sent; b > ps.backlogMax {
				ps.backlogMax = b
			}
			if h := heapInuse(); h > ps.heapPeak {
				ps.heapPeak = h
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	wg.Wait()
	close(done)
	sampler.Wait()
	for i := range ops {
		ps.lat[ops[i].kind] = append(ps.lat[ops[i].kind], lat[i])
	}
	return ps
}

// runSaturated drives ops closed-loop: each of conns workers sends its
// next op the moment the previous one is answered and checked, until
// dur has passed. It returns the ops completed per second after the
// first satWarmup (see windowRate) and the phase's counts. The warm-up
// lets compaction and the GC pacer settle at the closed-loop write rate
// before any window counts.
func runSaturated(c *client, ops []op, conns int, dur time.Duration) (float64, *phaseStats) {
	ps := &phaseStats{}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		ends []int64 // completion times of successful ops, ns from t0
	)
	t0 := now()
	stop := t0 + int64(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			var done []int64
			attempted, failed := 0, 0
			for now() < stop {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					break
				}
				attempted++
				oc := c.do(&ops[i], now(), &sc)
				if !oc.ok {
					failed++
					continue
				}
				done = append(done, oc.done-t0)
			}
			mu.Lock()
			ends = append(ends, done...)
			ps.attempted += attempted
			ps.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	slices.Sort(ends)
	return windowRate(ends, satWarmup, dur), ps
}

// windowRate cuts sorted completion times (ns from the phase start)
// between from and to into satSlices equal windows and returns the mean
// of their rates without the lowest and highest quarter, so a burst of
// host noise or a GC storm drops out with its window. Each window's
// rate is its completions over the time between its first and last one,
// not a count over the window's length, so the figure is not quantised
// to whole ops per window.
func windowRate(ends []int64, from, to time.Duration) float64 {
	window := int64(to-from) / satSlices
	rates := make([]float64, satSlices)
	for i := range rates {
		lo, _ := slices.BinarySearch(ends, int64(from)+int64(i)*window)
		hi, _ := slices.BinarySearch(ends, int64(from)+int64(i+1)*window)
		if hi-lo >= 2 && ends[hi-1] > ends[lo] {
			rates[i] = float64(hi-lo-1) / time.Duration(ends[hi-1]-ends[lo]).Seconds()
		}
	}
	slices.Sort(rates)
	mid := rates[satSlices/4 : satSlices-satSlices/4]
	sum := 0.0
	for _, r := range mid {
		sum += r
	}
	return sum / float64(len(mid))
}

// heapInuse reads the runtime's in-use heap span bytes (HeapInuse)
// without stopping the world.
var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

func heapInuse() uint64 {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64() + heapSamples[1].Value.Uint64()
}

// merge folds b's samples into a.
func (a *phaseStats) merge(b *phaseStats) {
	a.attempted += b.attempted
	a.failed += b.failed
	for k := range a.lat {
		a.lat[k] = append(a.lat[k], b.lat[k]...)
	}
	a.lag = append(a.lag, b.lag...)
	a.backlogMax = max(a.backlogMax, b.backlogMax)
	a.wire += b.wire
	a.raw += b.raw
	a.heapPeak = max(a.heapPeak, b.heapPeak)
}

// latSlices is how many consecutive slices a phase's latency samples
// are cut into for the reported percentiles; satSlices is how many
// windows a saturated phase's completions are counted in after its
// first satWarmup.
const (
	latSlices = 10
	satSlices = 10
	satWarmup = 1500 * time.Millisecond
)

// slicedPercentile cuts time-ordered samples into consecutive slices and
// returns the median of the slices' p-th percentiles: one burst of host
// noise or a GC storm moves one slice, not the reported figure.
func slicedPercentile(xs []float64, p float64) float64 {
	if len(xs) < 10*latSlices {
		return percentile(xs, p)
	}
	var per []float64
	for i := 0; i < latSlices; i++ {
		per = append(per, percentile(xs[i*len(xs)/latSlices:(i+1)*len(xs)/latSlices], p))
	}
	return percentile(per, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between order statistics (0 when empty); +Inf entries sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

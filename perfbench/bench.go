package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	flags     []string          // workload self-check and validity flags
	samples   []string          // latency sample count per op type
	problems  []string          // correctness violations
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// A latency whose percentile falls on a failed request is
		// reported as the latency limit's stand-in: far beyond any limit.
		v = 1e9
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) flag(format string, args ...any) {
	r.flags = append(r.flags, fmt.Sprintf(format, args...))
}

// Run lengths as shares of --seconds. Untraced: the nominal-rate phase,
// then the saturated phase. Traced: an untraced and a traced phase at the
// nominal rate (their primary-op p50s give the tracing overhead); the
// unloaded hop ladder runs after them and is not counted.
//
// satOverdraw is the saturated phase's schedule rate over the nominal
// rate: far above what any workload's stack answers closed-loop.
const (
	mainShare     = 0.65
	untracedShare = 0.4
	setupRepeats  = 3
	satOverdraw   = 12
)

// primaryOp is the op each workload exists to measure.
func primaryOp(w *workload) opKind {
	best := opGet
	for k := opKind(0); k < numOps; k++ {
		if w.Mix[k] > w.Mix[best] {
			best = k
		}
	}
	return best
}

// runWorkload runs one measured run of w.
func runWorkload(w *workload, seed int64, secs int, traced bool, outDir string) (*result, error) {
	conns := runtime.GOMAXPROCS(0)
	res := &result{Metrics: map[string]metric{}}
	keys, err := genKeys(w, seed)
	if err != nil {
		return nil, err
	}
	var truthBytes int64
	for i := range keys {
		truthBytes += int64(len(keys[i].base32)*4 + len(keys[i].base64)*8)
	}

	// Set up several times and keep the last stack; setup_s is the
	// median, so one slow set-up does not move it.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var e *env
	var setups []float64
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		e, err = setUp(w, keys, seed, runDir(outDir, i), traced, conns)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	sort.Float64s(setups)

	total := time.Duration(secs) * time.Second
	disk := watchDisk(e.st)
	before := snapshot()
	var measured *phaseStats
	var layers *layerReport
	if !traced {
		mainDur := time.Duration(float64(total) * mainShare)
		measured = runPhase(e.cli, schedule(w, seed, 2, w.Rate, mainDur), conns)
		satDur := total - mainDur
		// Arrival times are ignored closed-loop; the schedule only has
		// to hold more ops than the stack can answer in satDur.
		sustained, sat := runSaturated(e.cli, schedule(w, seed, 10, w.Rate*satOverdraw, satDur), conns, satDur)
		res.set("sustained_rps", sustained, "1/s")
		res.Attempted += sat.attempted
		res.Failed += sat.failed
	} else {
		uDur := time.Duration(float64(total) * untracedShare)
		untraced := runPhase(e.cli, schedule(w, seed, 2, w.Rate, uDur), conns)
		tDur := total - uDur
		e.rec.take()
		e.rec.on.Store(true)
		tBefore := snapshot()
		measured = runPhase(e.cli, schedule(w, seed, 3, w.Rate, tDur), conns)
		e.rec.on.Store(false)
		tDelta := snapshot().sub(tBefore)
		spans := e.rec.take()
		layers = analyze(spans)
		layers.counters = tDelta
		layers.resident = e.st.cacheResident()
		prim := primaryOp(w)
		layers.overheadPct = 100 * (percentile(measured.lat[prim], 50)/percentile(untraced.lat[prim], 50) - 1)
		if err := writeSpans(spans, outDir, w.Name, seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		res.Attempted += untraced.attempted
		res.Failed += untraced.failed
		measured.lag = append(measured.lag, untraced.lag...)
		measured.backlogMax = max(measured.backlogMax, untraced.backlogMax)
	}
	delta := snapshot().sub(before)
	written := disk.written()
	res.Attempted += measured.attempted
	res.Failed += measured.failed

	liveBytes, rawBytes := e.st.storeTotals()

	// The generator shares the stack's CPUs, so it wakes late when they
	// are busy; past the workload's lag limit, its lateness rather than
	// the stack's could decide the latencies.
	lagP99 := percentile(measured.lag, 99)
	if lagP99 > w.LagLimitMs {
		res.flag("loadgen: send lag p99 %.2f ms exceeds %.0f ms: the generator, not the stack, set the pace", lagP99, w.LagLimitMs)
	}
	selfChecks(res, w, delta, layers)

	if !traced {
		res.set("setup_s", setups[len(setups)/2], "s")
		for k := opKind(0); k < numOps; k++ {
			res.set(k.String()+"_p50_ms", slicedPercentile(measured.lat[k], 50), "ms")
			res.samples = append(res.samples, fmt.Sprintf("%s=%d", k, len(measured.lat[k])))
		}
		res.set("wire_bytes_per_user_byte", ratio(float64(measured.wire), float64(measured.raw)), "ratio")
		res.set("stored_bytes_per_user_byte", ratio(float64(liveBytes), float64(rawBytes)), "ratio")
		res.set("heap_peak_mb", float64(int64(measured.heapPeak)-truthBytes)/(1<<20), "MiB")
	} else {
		layers.emit(res)
		for k := opKind(0); k < numOps; k++ {
			res.set("e2e."+k.String()+"_p99_ms", slicedPercentile(measured.lat[k], 99), "ms")
		}
		ops := float64(measured.attempted)
		res.set("store.bytes_written_per_user_byte", ratio(float64(written), delta["avr.store_put_bytes"]), "ratio")
		res.set("client.wire_bytes_per_op", ratio(float64(measured.wire), ops), "B")
		res.set("loadgen.send_lag_p99_ms", lagP99, "ms")
		res.set("loadgen.backlog_max", float64(measured.backlogMax), "count")
		res.set("trace.overhead_pct", layers.overheadPct, "%")
		hops, err := runHops(outDir)
		if err != nil {
			return nil, fmt.Errorf("hop ladder: %w", err)
		}
		for _, h := range hops {
			res.set(h.name+"_us", h.us, "us")
			res.set(h.name+"_allocs", h.allocs, "allocs")
		}
	}
	for _, f := range e.cli.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", f)
	}
	res.problems = e.chk.violations()
	res.Correct = len(res.problems) == 0
	return res, nil
}

// selfChecks flags a run in which the workload stopped exercising the
// layer it exists for. Flags are printed, not fatal: a change that
// legitimately moves a layer across the line must still be measurable.
func selfChecks(res *result, w *workload, d counters, layers *layerReport) {
	switch w.Name {
	case "hot-read":
		if hr := d.hitRatio(); hr < 0.9 {
			res.flag("hot-read: read-cache hit ratio %.3f below 0.9", hr)
		}
		if layers != nil && layers.clusterSpans > 0 {
			res.flag("hot-read: %d router spans recorded", layers.clusterSpans)
		}
	case "cold-routed":
		if hr := d.hitRatio(); hr > 0.2 {
			res.flag("cold-routed: read-cache hit ratio %.3f above 0.2", hr)
		}
		if d["avr.store_compactions"] == 0 {
			res.flag("cold-routed: no compaction cycle completed")
		}
	case "batch-routed":
		if layers != nil && layers.storeStageUs > layers.framingUs {
			res.flag("batch-routed: store stage time %.0f us exceeds server+cluster+client framing %.0f us",
				layers.storeStageUs, layers.framingUs)
		}
	}
}

package main

import (
	"expvar"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"avr/internal/obs"
)

// counters is a snapshot of the program's own process-wide counters
// (the avr.* expvars its layers publish), keyed by expvar name, plus the
// runtime's allocation and GC totals.
type counters map[string]float64

// counterNames are the avr.* counters the per-layer metrics use.
var counterNames = []string{
	"avr.store_gets", "avr.cache_hits", "avr.cache_evictions",
	"avr.prefetch_issued", "avr.prefetch_useful", "avr.server_shed",
	"avr.router_failovers", "avr.router_retries", "avr.store_compactions",
	"avr.store_compacted_bytes", "avr.store_query_bytes_touched",
	"avr.store_query_bytes_total", "avr.store_put_bytes",
	"avr.store_blocks_avr", "avr.store_blocks_lossless",
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func snapshot() counters {
	c := counters{}
	for _, n := range counterNames {
		if v, ok := expvar.Get(n).(*expvar.Int); ok {
			c[n] = float64(v.Value())
		}
	}
	// The compaction-latency histogram's sum is the time spent compacting.
	if f, ok := expvar.Get("avr.store_compact_latency").(expvar.Func); ok {
		if sum, ok := f.Value().(obs.Summary); ok {
			c["compact_ms"] = sum.Sum
		}
	}
	metrics.Read(rtSamples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["alloc_bytes"] = float64(rtSamples[0].Value.Uint64())
	c["gc_cycles"] = float64(rtSamples[1].Value.Uint64())
	c["gc_pause_ns"] = float64(ms.PauseTotalNs)
	return c
}

// sub returns the change from b to a.
func (a counters) sub(b counters) counters {
	d := counters{}
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

func (c counters) hitRatio() float64 { return ratio(c["avr.cache_hits"], c["avr.store_gets"]) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// env is one set-up serving stack with its client.
type env struct {
	st  *stack
	cli *client
	chk *checker
	rec *recorder
}

func (e *env) close() {
	e.cli.close()
	e.st.close()
}

// setUp opens the stack, preloads every key through the public path and
// warms up: one read of every key, then half a second of the workload's
// own traffic at its nominal rate.
func setUp(w *workload, keys []keyData, seed int64, dir string, traced bool, conns int) (*env, error) {
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	st, err := startStack(w, dir, rec)
	if err != nil {
		return nil, err
	}
	e := &env{st: st, rec: rec, chk: newChecker(keys, st.t1)}
	e.cli = newClient(st.top, keys, e.chk, rec, conns)
	if ps := runPhase(e.cli, everyKey(w, opPut, opMput), conns); ps.failed > 0 {
		e.close()
		return nil, fmt.Errorf("preload: %d of %d requests failed", ps.failed, ps.attempted)
	}
	warm := runPhase(e.cli, everyKey(w, opGet, opMget), conns)
	warm.merge(runPhase(e.cli, schedule(w, seed, 1, w.Rate, 500*time.Millisecond), conns))
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	return e, nil
}

// everyKey returns ops that touch every key once, all due at once: the
// batch op over w.Batch keys at a time when the workload issues it more
// than the single-key op.
func everyKey(w *workload, single, batch opKind) []op {
	var ops []op
	for i := 0; i < w.Keys; i += w.Batch {
		end := min(i+w.Batch, w.Keys)
		if w.Mix[batch] > w.Mix[single] {
			o := op{kind: batch}
			for k := i; k < end; k++ {
				o.keys = append(o.keys, int32(k))
			}
			ops = append(ops, o)
			continue
		}
		for k := i; k < end; k++ {
			ops = append(ops, op{kind: single, key: int32(k)})
		}
	}
	return ops
}

// diskWatch polls the shards' segment files while the workload runs so
// the bytes the store wrote can be told apart from the bytes it keeps.
type diskWatch struct {
	st   *stack
	stop chan struct{}
	wg   sync.WaitGroup
	max  map[string]int64
	base int64
}

func watchDisk(st *stack) *diskWatch {
	d := &diskWatch{st: st, stop: make(chan struct{}), max: map[string]int64{}}
	st.segmentBytes(d.max)
	for _, b := range d.max {
		d.base += b
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				st.segmentBytes(d.max)
			}
		}
	}()
	return d
}

// written stops the watch and returns the bytes appended to segment
// files since it started; a file that lived and died between two polls
// is missed.
func (d *diskWatch) written() int64 {
	close(d.stop)
	d.wg.Wait()
	d.st.segmentBytes(d.max)
	n := -d.base
	for _, b := range d.max {
		n += b
	}
	return n
}

func runDir(outDir string, i int) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%d-%d", os.Getpid(), i))
}

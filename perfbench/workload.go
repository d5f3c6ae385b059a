package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"avr/internal/workloads"
)

// opKind is one client operation type. Every workload issues all five so
// every end-to-end metric is defined on every workload; the ops outside
// a workload's purpose run as small fixed "probe" shares (see README.md).
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opQuery
	opMget
	opMput
	numOps
)

var opNames = [numOps]string{"get", "put", "query", "mget", "mput"}

func (k opKind) String() string { return opNames[k] }

// storeSettings are the per-shard store and read-cache knobs.
type storeSettings struct {
	CacheBytes   int64
	Prefetch     bool
	SegmentBytes int64 // 0 = store default (64 MiB)
	CompactEvery time.Duration
}

// workload is one fixed traffic mix against one fixed stack. Every
// number here is part of the benchmark's definition: changing one makes
// results incomparable with earlier runs.
type workload struct {
	Name       string
	Routed     bool // three shards behind the router (replication 2)
	Keys       int
	ValueBytes int     // raw bytes per key
	FP64Share  float64 // share of keys stored as fp64
	Rate       float64 // nominal Poisson arrival rate, ops/s
	Mix        [numOps]float64
	Batch      int     // keys per mget/mput
	Zipf       float64 // >1: Zipfian key popularity; 0: uniform
	// Scan phases (hot-read): every ScanEvery, ScanFor of gets walk the
	// key space in order from a random start, so the stride prefetcher
	// has something to detect.
	ScanEvery, ScanFor time.Duration
	// LagLimitMs is the generator's send-lag p99 past which a run is
	// flagged as paced by the generator rather than the stack.
	LagLimitMs float64
	Store      storeSettings
}

// Nominal rates sit at 25-35 % of the closed-loop capacity
// (sustained_rps) a 2-core machine measures: loaded, but far enough from
// saturation that run-to-run noise is not amplified.
var workloadsByName = map[string]*workload{
	"hot-read": {
		Name: "hot-read", Keys: 256, ValueBytes: 64 << 10,
		Rate:  1200,
		Mix:   [numOps]float64{opGet: 0.91, opPut: 0.05, opQuery: 0.02, opMget: 0.01, opMput: 0.01},
		Batch: 2, Zipf: 1.1,
		ScanEvery: 2 * time.Second, ScanFor: 150 * time.Millisecond,
		LagLimitMs: 5,
		// avrd defaults (64 MiB cache with prefetch, 64 MiB segments, no
		// per-put fsync) except compaction: avrd's 30 s tick would fire
		// inside every run and its buffers would own heap_peak_mb, while
		// compaction is measured on cold-routed and meant to idle here.
		Store: storeSettings{CacheBytes: 64 << 20, Prefetch: true, CompactEvery: 5 * time.Minute},
	},
	"cold-routed": {
		Name: "cold-routed", Routed: true, Keys: 1024, ValueBytes: 64 << 10, FP64Share: 0.25,
		Rate:       500,
		Mix:        [numOps]float64{opGet: 0.52, opPut: 0.33, opQuery: 0.10, opMget: 0.025, opMput: 0.025},
		Batch:      2,
		LagLimitMs: 10,
		// ~683 keys per shard (replication 2) of ~14 KB summary lines is
		// ~9.5 MB of lines, 19x the 512 KiB budget, so the cache mostly
		// misses. 1 MiB segments and a 250 ms compaction tick make
		// compaction cycle many times per run.
		Store: storeSettings{CacheBytes: 512 << 10, Prefetch: true, SegmentBytes: 4 << 20, CompactEvery: 250 * time.Millisecond},
	},
	"batch-routed": {
		Name: "batch-routed", Routed: true, Keys: 1024, ValueBytes: 16 << 10,
		Rate:       100,
		Mix:        [numOps]float64{opGet: 0.10, opPut: 0.10, opQuery: 0.10, opMget: 0.42, opMput: 0.28},
		Batch:      8,
		LagLimitMs: 20,
		Store:      storeSettings{CacheBytes: 512 << 10, Prefetch: true, SegmentBytes: 4 << 20, CompactEvery: 250 * time.Millisecond},
	},
}

var workloadOrder = []string{"hot-read", "cold-routed", "batch-routed"}

// describe renders every setting of the workload on one line.
func (w *workload) describe(nproc int) string {
	var mix []string
	for k := opKind(0); k < numOps; k++ {
		mix = append(mix, fmt.Sprintf("%s=%.3g", k, w.Mix[k]))
	}
	pop := "uniform"
	if w.Zipf > 0 {
		pop = fmt.Sprintf("zipf(s=%.2g)+scan(%v every %v)", w.Zipf, w.ScanFor, w.ScanEvery)
	}
	seg := "64MiB(default)"
	if w.Store.SegmentBytes > 0 {
		seg = fmt.Sprintf("%dKiB", w.Store.SegmentBytes>>10)
	}
	return fmt.Sprintf("workload %s: routed=%v keys=%d x %dKiB fp64_share=%.2g rate=%.0f/s mix{%s} batch=%d keys=%s "+
		"lag_limit=%.0fms saturated=closed-loop cache=%dKiB/shard prefetch=%v segment=%s compact_every=%v flush=no-per-put-fsync nproc=%d",
		w.Name, w.Routed, w.Keys, w.ValueBytes>>10, w.FP64Share, w.Rate, strings.Join(mix, " "), w.Batch, pop,
		w.LagLimitMs, w.Store.CacheBytes>>10, w.Store.Prefetch, seg, w.Store.CompactEvery, nproc)
}

// keyData is the generator's ground truth for one key: the base vector
// every version of the key is derived from.
type keyData struct {
	name   string
	width  int
	base32 []float32
	base64 []float64
	lo, hi float64 // filter-query range, in base units
}

// Versions of a key scale its base vector by one of these multipliers.
// Neighbouring versions differ by 20 %, far beyond twice any t1 the
// store uses, so a stale read cannot pass the bound check by accident.
var versionMult = [4]float64{1, 1.2, 1.44, 1.728}

func multOf(ver uint32) float64 { return versionMult[ver%uint32(len(versionMult))] }

func (kd *keyData) values() int {
	if kd.width == 32 {
		return len(kd.base32)
	}
	return len(kd.base64)
}

func (kd *keyData) rawBytes() int { return kd.values() * kd.width / 8 }

// value returns element i of version ver exactly as the client sends it.
func (kd *keyData) value(i int, ver uint32) float64 {
	m := multOf(ver)
	if kd.width == 32 {
		return float64(float32(float64(kd.base32[i]) * m))
	}
	return kd.base64[i] * m
}

// payload renders version ver of the key as raw little-endian values,
// the body a put sends.
func (kd *keyData) payload(ver uint32) []byte {
	dst := make([]byte, 0, kd.rawBytes())
	for i := 0; i < kd.values(); i++ {
		v := kd.value(i, ver)
		if kd.width == 32 {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// genKeys builds the data set deterministically from seed: key i uses
// distribution i mod 5, the first FP64Share of each stride of four keys
// is fp64.
func genKeys(w *workload, seed int64) ([]keyData, error) {
	dists := workloads.Distributions()
	keys := make([]keyData, w.Keys)
	fp64Every := 0
	if w.FP64Share > 0 {
		fp64Every = int(math.Round(1 / w.FP64Share))
	}
	for i := range keys {
		kd := &keys[i]
		kd.name = fmt.Sprintf("%s-%04d", w.Name, i)
		dist := dists[i%len(dists)]
		ks := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i+1)*0xBF58476D1CE4E5B9
		kd.width = 32
		if fp64Every > 0 && i%fp64Every == fp64Every-1 {
			kd.width = 64
		}
		var err error
		if kd.width == 32 {
			kd.base32, err = workloads.GenFloat32(dist, w.ValueBytes/4, ks)
		} else {
			kd.base64, err = workloads.GenFloat64(dist, w.ValueBytes/8, ks)
		}
		if err != nil {
			return nil, err
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for j := 0; j < kd.values(); j++ {
			v := kd.value(j, 0)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		// The filter range covers the middle of the value span, so the
		// walker both prunes blocks and inspects boundary ones.
		kd.lo, kd.hi = lo+0.3*(hi-lo), lo+0.6*(hi-lo)
	}
	return keys, nil
}

// op is one scheduled client request.
type op struct {
	at     time.Duration // intended send time from phase start
	kind   opKind
	key    int32   // single-key ops
	keys   []int32 // batch ops
	filter bool    // query: filter (true) or aggregate
}

// keyPicker draws keys with the workload's popularity.
type keyPicker struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int32 // popularity rank -> key
}

func newKeyPicker(w *workload, rng *rand.Rand) *keyPicker {
	// Popularity rank r goes to a key of distribution r mod 5 (shuffled
	// within the distribution), so every seed heats the same mix of
	// value shapes and only which keys are hot changes.
	nd := len(workloads.Distributions())
	byDist := make([][]int32, nd)
	for i := 0; i < w.Keys; i++ {
		byDist[i%nd] = append(byDist[i%nd], int32(i))
	}
	for _, ks := range byDist {
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	}
	kp := &keyPicker{w: w, rng: rng, perm: make([]int32, w.Keys)}
	for r := range kp.perm {
		kp.perm[r] = byDist[r%nd][r/nd]
	}
	if w.Zipf > 1 {
		kp.zipf = rand.NewZipf(rng, w.Zipf, 1, uint64(w.Keys-1))
	}
	return kp
}

func (kp *keyPicker) pick() int32 {
	if kp.zipf != nil {
		return kp.perm[kp.zipf.Uint64()]
	}
	return int32(kp.rng.Intn(kp.w.Keys))
}

// distinct draws n different keys.
func (kp *keyPicker) distinct(n int) []int32 {
	out := make([]int32, 0, n)
	for len(out) < n {
		k := kp.pick()
		dup := false
		for _, o := range out {
			dup = dup || o == k
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

// schedule draws one phase's open-loop arrivals: Poisson at rate for
// dur, op types from the workload mix. The same seed and phase give the
// same schedule.
func schedule(w *workload, seed int64, phase int, rate float64, dur time.Duration) []op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(phase)))
	kp := newKeyPicker(w, rng)
	var cum [numOps]float64
	acc := 0.0
	for k := opKind(0); k < numOps; k++ {
		acc += w.Mix[k]
		cum[k] = acc
	}
	var ops []op
	scanPos := int32(-1)
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			break
		}
		u := rng.Float64() * acc
		kind := opKind(sort.SearchFloat64s(cum[:], u))
		if kind >= numOps {
			kind = numOps - 1
		}
		o := op{at: at, kind: kind}
		switch kind {
		case opGet:
			if w.ScanEvery > 0 && at%w.ScanEvery < w.ScanFor {
				if scanPos < 0 {
					scanPos = int32(rng.Intn(w.Keys))
				}
				o.key = scanPos % int32(w.Keys)
				scanPos++
			} else {
				scanPos = -1
				o.key = kp.pick()
			}
		case opPut:
			o.key = kp.pick()
		case opQuery:
			o.key = kp.pick()
			o.filter = rng.Intn(2) == 0
		case opMget, opMput:
			o.keys = kp.distinct(w.Batch)
		}
		ops = append(ops, o)
	}
	return ops
}

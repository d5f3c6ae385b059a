package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"avr/internal/workloads"
)

// warmCache fills key's summary line synchronously and fails the test if
// it did not become resident (a torn or unreadable key never caches).
func warmCache(t *testing.T, s *Store, key string) {
	t.Helper()
	s.loadCacheLine(key, false)
	if !s.cache.Contains(key) {
		t.Fatalf("warm of %q did not cache a line", key)
	}
}

// TestCacheHitByteIdentical is the tentpole correctness bar: for every
// workload generator the repo ships, at both widths and at awkward
// sizes, a cache-hit reconstruction is byte-identical to the disk
// decode path. The disk reference comes from a cache-off store that
// received the same puts; the hit from GetInto after a synchronous warm.
func TestCacheHitByteIdentical(t *testing.T) {
	dists := workloads.Distributions()
	if len(dists) == 0 {
		t.Fatal("no workload distributions registered")
	}
	for _, dist := range dists {
		t.Run(dist+"/fp32", func(t *testing.T) {
			checkHitByteIdentical(t, dist, func(n int, seed uint64) []float32 { return genF32(t, dist, n, seed) })
		})
		t.Run(dist+"/fp64", func(t *testing.T) {
			checkHitByteIdentical(t, dist, func(n int, seed uint64) []float64 { return genF64(t, dist, n, seed) })
		})
	}
}

func checkHitByteIdentical[T Float](t *testing.T, dist string, gen func(n int, seed uint64) []T) {
	cfg := Config{SegmentTargetBytes: 1 << 20}
	disk := openTest(t, cfg)
	cfg.CacheBytes = 32 << 20
	s := openTest(t, cfg)
	for si, n := range []int{17, BlockValues, BlockValues + 1, 3*BlockValues + 511} {
		key := fmt.Sprintf("%s-%d", dist, n)
		vals := gen(n, uint64(si)*1000+7)
		for _, st := range []*Store{disk, s} {
			if _, err := Put(st, key, vals, nil); err != nil {
				t.Fatal(err)
			}
		}
		want, src, err := GetInto[T](disk, nil, key, nil)
		if err != nil || src != CacheNone {
			t.Fatalf("disk reference read: src %q err %v", src, err)
		}
		warmCache(t, s, key)
		got, src, err := GetInto[T](s, nil, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if src != CacheHit {
			t.Fatalf("warmed read served as %q, want hit", src)
		}
		if len(got) != len(want) {
			t.Fatalf("hit returned %d values, disk %d", len(got), len(want))
		}
		for i := range got {
			if g, w := valueBits(got[i]), valueBits(want[i]); g != w {
				t.Fatalf("%s[%d]: hit %x disk %x — not byte-identical", key, i, g, w)
			}
		}
	}
}

// valueBits returns v's IEEE bit pattern.
func valueBits[T Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// TestCacheMissThenAsyncHit exercises the production fill path end to
// end: a cold read reports miss and queues a background fill, and once
// the worker lands the line a re-read reports hit with the same bytes.
func TestCacheMissThenAsyncHit(t *testing.T) {
	s := openTest(t, Config{CacheBytes: 8 << 20})
	vals := genF32(t, "heat", 2*BlockValues+99, 3)
	if _, err := s.Put32("async", vals); err != nil {
		t.Fatal(err)
	}
	cold, src, err := s.Get32IntoCached(nil, "async", nil)
	if err != nil {
		t.Fatal(err)
	}
	if src != CacheMiss {
		t.Fatalf("cold read served as %q, want miss", src)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !s.cache.Contains("async") {
		if time.Now().After(deadline) {
			t.Fatal("async fill never landed")
		}
		time.Sleep(time.Millisecond)
	}
	warm, src, err := s.Get32IntoCached(nil, "async", nil)
	if err != nil {
		t.Fatal(err)
	}
	if src != CacheHit {
		t.Fatalf("warmed read served as %q, want hit", src)
	}
	for i := range warm {
		if math.Float32bits(warm[i]) != math.Float32bits(cold[i]) {
			t.Fatalf("value %d changed across fill: %x vs %x", i,
				math.Float32bits(warm[i]), math.Float32bits(cold[i]))
		}
	}
}

// TestCacheBudgetInvariant: resident bytes never exceed the configured
// budget, whatever mix of keys and sizes gets cached.
func TestCacheBudgetInvariant(t *testing.T) {
	// ~18 KB per lossless "normal" line across 16 shards: a 2 MiB budget
	// admits lines (128 KiB per shard) but cannot hold all 64 keys, so
	// eviction must do real work.
	const budget = 2 << 20
	s := openTest(t, Config{CacheBytes: budget, SegmentTargetBytes: 1 << 20})
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k-%03d", i)
		vals := genF32(t, "normal", BlockValues+i*37, uint64(i))
		if _, err := s.Put32(key, vals); err != nil {
			t.Fatal(err)
		}
		s.loadCacheLine(key, false)
		if got := s.cache.Bytes(); got > budget {
			t.Fatalf("resident %d bytes exceeds budget %d after %d keys", got, budget, i+1)
		}
	}
	if s.cache.Len() == 0 {
		t.Fatal("nothing stayed resident under the budget")
	}
	snap := s.CacheSnapshot()
	if !snap.Enabled || snap.ResidentBytes != s.cache.Bytes() || snap.BudgetBytes != budget {
		t.Fatalf("snapshot %+v inconsistent with cache state", snap)
	}
}

// TestTornTailCachePrefix is the satellite regression: a torn-tail key
// caches (and serves) only the recovered prefix, never marked complete —
// every cached read of it keeps reporting ErrIncomplete, byte-identical
// to the disk prefix.
func TestTornTailCachePrefix(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir})
	vals := genF32(t, "heat", 3*BlockValues, 9)
	if _, err := s.Put32("torn", vals); err != nil {
		t.Fatal(err)
	}
	infos, err := s.BlockInfos("torn")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := segIDs(dir)
	if err != nil || len(ids) == 0 {
		t.Fatalf("segIDs: %v (%d found)", err, len(ids))
	}
	cut := int64(segHeaderLen) + infos[0].Bytes + infos[1].Bytes/2
	if err := os.Truncate(segFile(dir, ids[0]), cut); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, Config{Dir: dir, CacheBytes: 8 << 20})
	want, err := diskGet32(s, "torn") // prefix + ErrIncomplete
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("disk read of torn vector: err %v", err)
	}
	warmCache(t, s, "torn")
	ent, ok := s.cache.Get("torn")
	if !ok {
		t.Fatal("torn line not resident")
	}
	if ln := ent.Meta.(*cachedLine); ln.complete {
		t.Fatal("torn-tail line cached as complete")
	} else if ln.nvals != BlockValues {
		t.Fatalf("torn line caches %d values, want the %d-value prefix", ln.nvals, BlockValues)
	}
	got, src, err := s.Get32IntoCached(nil, "torn", nil)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("cached read of torn vector: err %v, want ErrIncomplete", err)
	}
	if src != CacheHit {
		t.Fatalf("warmed torn read served as %q, want hit", src)
	}
	if len(got) != len(want) {
		t.Fatalf("cached prefix %d values, disk prefix %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("torn prefix value %d differs: %x vs %x", i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestCacheInvalidation pins the three write-path invalidation hooks
// directly: overwrite, delete, and the no-stale-serve guarantee after
// each.
func TestCacheInvalidation(t *testing.T) {
	s := openTest(t, Config{CacheBytes: 8 << 20})
	v1 := genF32(t, "heat", BlockValues, 1)
	if _, err := s.Put32("k", v1); err != nil {
		t.Fatal(err)
	}
	warmCache(t, s, "k")
	v2 := genF32(t, "heat", BlockValues, 2)
	if _, err := s.Put32("k", v2); err != nil {
		t.Fatal(err)
	}
	if s.cache.Contains("k") {
		t.Fatal("overwrite left a stale line resident")
	}
	got, src, err := s.Get32IntoCached(nil, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if src != CacheMiss {
		t.Fatalf("read after overwrite served as %q, want miss", src)
	}
	disk, err := diskGet32(s, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(disk[i]) {
			t.Fatalf("post-overwrite value %d differs from disk", i)
		}
	}
	warmCache(t, s, "k")
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.cache.Contains("k") {
		t.Fatal("delete left a stale line resident")
	}
	if _, _, err := s.Get32IntoCached(nil, "k", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete: err %v, want ErrNotFound", err)
	}
}

// TestRecompressionInvalidatesCache: a compaction pass that converts a
// lossless block to AVR changes the on-disk bytes, so the key's resident
// line must drop — a cached read afterwards matches the fresh disk
// decode, not the pre-conversion exact values.
func TestRecompressionInvalidatesCache(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, T1: 1e-7, SegmentTargetBytes: 64 << 10})
	want := make([][]float32, 6)
	for i := range want {
		want[i] = genF32(t, "heat", BlockValues, uint64(i)+1)
		if _, err := s.Put32(key(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Fragment so compaction has a victim.
	for i := 0; i < 3; i++ {
		want[i] = genF32(t, "heat", BlockValues, uint64(i)+100)
		if _, err := s.Put32(key(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at the default threshold with the cache on and warm every
	// key, then compact: conversions must invalidate.
	r := openTest(t, Config{Dir: dir, SegmentTargetBytes: 64 << 10, CacheBytes: 8 << 20})
	for i := range want {
		warmCache(t, r, key(i))
	}
	before := snapCounters()
	for {
		_, did, err := r.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	if d := snapCounters().since(before); d.won == 0 {
		t.Fatalf("setup: compaction converted no blocks (delta %+v)", d)
	}
	for i := range want {
		got, _, err := r.Get32IntoCached(nil, key(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := diskGet32(r, key(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if math.Float32bits(got[j]) != math.Float32bits(disk[j]) {
				t.Fatalf("key %d value %d: cached read %x vs disk %x after recompression",
					i, j, math.Float32bits(got[j]), math.Float32bits(disk[j]))
			}
		}
	}
}

// TestCacheWriteReadHammer is the -race proof of the invalidation
// scheme: concurrent overwrites, cached reads and background fills on
// the same keys, with every read required to return an internally
// consistent generation (all values from one put, within bound).
func TestCacheWriteReadHammer(t *testing.T) {
	s := openTest(t, Config{CacheBytes: 4 << 20})
	const keys = 4
	const gens = 50
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Writers: each key cycles through generations of constant vectors;
	// a constant block reconstructs exactly, so any mixed-generation or
	// stale read is loud.
	for k := 0; k < keys; k++ {
		writers.Add(1)
		go func(k int) {
			defer writers.Done()
			vals := make([]float32, 2*BlockValues)
			for g := 1; g <= gens; g++ {
				v := float32(k*1000 + g)
				for i := range vals {
					vals[i] = v
				}
				if _, err := s.Put32(fmt.Sprintf("h-%d", k), vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	// Readers: hammer the cached path until the writers finish.
	for r := 0; r < 2*keys; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var dst []float32
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("h-%d", r%keys)
				got, _, err := s.Get32IntoCached(dst[:0], key, nil)
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // writer has not reached this key yet
					}
					t.Error(err)
					return
				}
				dst = got
				for i := 1; i < len(got); i++ {
					if got[i] != got[0] {
						t.Errorf("%s: mixed generations in one read: [0]=%v [%d]=%v",
							key, got[0], i, got[i])
						return
					}
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	// Settled state: every key's cached read equals the last generation.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("h-%d", k)
		got, _, err := s.Get32IntoCached(nil, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := float32(k*1000 + gens)
		for i := range got {
			if got[i] != want {
				t.Fatalf("%s[%d] = %v after hammer, want final generation %v", key, i, got[i], want)
			}
		}
	}
}

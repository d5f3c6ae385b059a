package store

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"avr/internal/workloads"
)

// scanAllFrames collects every block record in every segment of a
// store's directory, keyed by (key, block index), after forcing the
// active segment to disk via Close.
func scanAllFrames(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	frames := make(map[string][]byte)
	for _, ent := range ents {
		f, err := os.Open(dir + "/" + ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		_, err = scanSegment(f, func(rec record, off, frameLen int64) error {
			if rec.Kind != recordBlock {
				return nil
			}
			k := fmt.Sprintf("%s/%d/enc%d", rec.Key, rec.BlockIdx, rec.Enc)
			frames[k] = append([]byte(nil), rec.Data...)
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// TestPutParallelMatchesSerial pins the worker-pool contract: a store
// encoding puts over EncodeWorkers goroutines writes block frames
// byte-identical to the serial store, for every workload distribution
// and both widths. Blocks are independent, so only scheduling — never
// content — may differ.
func TestPutParallelMatchesSerial(t *testing.T) {
	serial := openTest(t, Config{EncodeWorkers: 1})
	parallel := openTest(t, Config{EncodeWorkers: 4})
	for i, dist := range workloads.Distributions() {
		key32 := fmt.Sprintf("k32-%s", dist)
		key64 := fmt.Sprintf("k64-%s", dist)
		n := 4*BlockValues + 100*i // vary block counts and tail sizes
		v32, err := workloads.GenFloat32(dist, n, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		v64, err := workloads.GenFloat64(dist, n/2, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Store{serial, parallel} {
			if _, err := s.Put32(key32, v32); err != nil {
				t.Fatal(err)
			}
			if _, err := Put(s, key64, v64, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	sDir, pDir := serial.cfg.Dir, parallel.cfg.Dir
	if err := serial.Close(); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Close(); err != nil {
		t.Fatal(err)
	}
	want := scanAllFrames(t, sDir)
	got := scanAllFrames(t, pDir)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("frame counts differ: serial %d, parallel %d", len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("parallel store missing frame %s", k)
		}
		if string(g) != string(w) {
			t.Fatalf("frame %s differs: serial %d bytes, parallel %d bytes", k, len(w), len(g))
		}
	}
}

// TestStoreConcurrentHammer drives Put/Get/Delete/CompactOnce from
// concurrent goroutines against a pooled-encoder store. Run under the
// race detector in CI, it pins the pool's synchronisation: job posting
// vs worker claims, codec borrowing, and compaction's concurrent retry
// precompute.
func TestStoreConcurrentHammer(t *testing.T) {
	s := openTest(t, Config{
		EncodeWorkers:      4,
		SegmentTargetBytes: 128 << 10,
		MinDeadFraction:    0.05,
	})
	vals := genF32(t, "heat", 3*BlockValues+17, 7)
	vals64 := genF64(t, "wave", BlockValues+9, 8)
	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("key-%d-%d", w, i%5)
				if _, err := s.Put32(key, vals); err != nil {
					t.Error(err)
					return
				}
				if _, err := Put(s, fmt.Sprintf("wide-%d", w), vals64, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if got, err := get32(s, fmt.Sprintf("key-0-%d", i%5)); err == nil {
				if len(got) != len(vals) {
					t.Errorf("get returned %d values, want %d", len(got), len(vals))
					return
				}
			} else if err != ErrNotFound {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			if err := s.Delete(fmt.Sprintf("key-1-%d", i%5)); err != nil && err != ErrNotFound {
				t.Error(err)
				return
			}
			if _, _, err := s.CompactOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// The store must still round-trip within threshold after the storm.
	if _, err := s.Put32("final", vals); err != nil {
		t.Fatal(err)
	}
	got, err := get32(s, "final")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !withinT1(float64(got[i]), float64(vals[i]), s.T1()) {
			t.Fatalf("value %d: got %g, want %g within t1", i, got[i], vals[i])
		}
	}
}

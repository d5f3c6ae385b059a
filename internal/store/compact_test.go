package store

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"avr/internal/obs"
)

// counterDeltas snapshots the obs counters the recompression policy
// tests assert on. expvar state is process-global, so tests check
// deltas.
type counterDeltas struct {
	tried, skipped, won, compactions, skips int64
}

func snapCounters() counterDeltas {
	return counterDeltas{
		tried:       obs.StoreRecompressTried.Value(),
		skipped:     obs.StoreRecompressSkipped.Value(),
		won:         obs.StoreRecompressWon.Value(),
		compactions: obs.StoreCompactions.Value(),
		skips:       obs.StoreCompressSkips.Value(),
	}
}

func (c counterDeltas) since(prev counterDeltas) counterDeltas {
	return counterDeltas{
		tried:       c.tried - prev.tried,
		skipped:     c.skipped - prev.skipped,
		won:         c.won - prev.won,
		compactions: c.compactions - prev.compactions,
		skips:       c.skips - prev.skips,
	}
}

// fillAndFragment interleaves long-lived keys with repeated overwrites
// of one churn key, so sealed segments end up mixing live frames (to be
// moved) with dead ones (to be reclaimed).
func fillAndFragment(t *testing.T, s *Store, dist string, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		keep := genF32(t, dist, BlockValues, uint64(r)+1000)
		if _, err := s.Put32(fmt.Sprintf("keep-%d", r), keep); err != nil {
			t.Fatal(err)
		}
		vals := genF32(t, dist, BlockValues, uint64(r)+1)
		if _, err := s.Put32("churn", vals); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompactionReclaimsDeadBytes(t *testing.T) {
	s := openTest(t, Config{SegmentTargetBytes: 64 << 10})
	fillAndFragment(t, s, "normal", 12)
	st := s.Stats()
	if st.Segments < 2 || st.DeadBytes == 0 {
		t.Fatalf("fragmentation setup failed: %+v", st)
	}
	keep, err := get32(s, "churn")
	if err != nil {
		t.Fatal(err)
	}

	for {
		_, did, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	after := s.Stats()
	if after.DiskBytes >= st.DiskBytes {
		t.Errorf("disk bytes %d after compaction, was %d", after.DiskBytes, st.DiskBytes)
	}
	if after.CompactionDebt > 0.5*st.CompactionDebt {
		t.Errorf("compaction debt %.3f after, was %.3f", after.CompactionDebt, st.CompactionDebt)
	}
	got, err := get32(s, "churn")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(keep[i]) {
			t.Fatalf("value %d changed across compaction", i)
		}
	}
}

// TestRecompressionSkipsFlaggedBlocks pins the CMT-mirroring policy: a
// lossless block flagged at the store's current threshold is copied,
// never re-tried — demonstrated by the obs counters.
func TestRecompressionSkipsFlaggedBlocks(t *testing.T) {
	s := openTest(t, Config{SegmentTargetBytes: 64 << 10})
	// Noise never compresses: every block goes lossless and is flagged.
	fillAndFragment(t, s, "normal", 12)
	if st := s.Stats(); st.FlaggedBlocks == 0 {
		t.Fatalf("setup: no flagged blocks (%+v)", st)
	}

	before := snapCounters()
	var moved int
	for {
		res, did, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
		moved += res.FramesMoved
	}
	d := snapCounters().since(before)
	if d.compactions == 0 || moved == 0 {
		t.Fatalf("no compaction happened (delta %+v, moved %d)", d, moved)
	}
	if d.skipped == 0 {
		t.Errorf("flagged blocks moved without a recompress skip (delta %+v)", d)
	}
	if d.tried != 0 {
		t.Errorf("recompression tried %d flagged blocks, want 0", d.tried)
	}
}

// TestRecompressionRetriesAfterThresholdChange: reopening the store at a
// different t1 re-arms the retry, and smooth data written lossless under
// an impossibly tight threshold converts to AVR under the default one.
func TestRecompressionRetriesAfterThresholdChange(t *testing.T) {
	dir := t.TempDir()
	// Tight threshold: even smooth data cannot meet t1=1e-7, so blocks
	// land lossless and flagged at 1e-7.
	s := openTest(t, Config{Dir: dir, T1: 1e-7, SegmentTargetBytes: 64 << 10})
	want := make([][]float32, 6)
	for i := range want {
		want[i] = genF32(t, "heat", BlockValues, uint64(i)+1)
		if _, err := s.Put32(key(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.FlaggedBlocks == 0 {
		t.Fatalf("setup: tight threshold produced no lossless blocks (%+v)", st)
	}
	// Fragment so compaction has a victim: overwrite half the keys.
	for i := 0; i < 3; i++ {
		want[i] = genF32(t, "heat", BlockValues, uint64(i)+100)
		if _, err := s.Put32(key(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at the default threshold: flags (rebuilt at t1=1e-7) no
	// longer match, so compaction retries — and heat data compresses
	// easily at 1/32.
	r := openTest(t, Config{Dir: dir, SegmentTargetBytes: 64 << 10})
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
	d := snapCounters().since(before)
	if d.tried == 0 || d.won == 0 {
		t.Fatalf("threshold change did not re-arm recompression (delta %+v)", d)
	}
	// Converted blocks now serve values at the *new* threshold.
	for i := range want {
		got, err := get32(r, key(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if !withinT1(float64(got[j]), float64(want[i][j]), r.T1()) {
				t.Fatalf("key %d value %d beyond t1 after recompression", i, j)
			}
		}
	}
}

// TestPutSkipsFlaggedBlocks pins the write-path skip: a re-put of a
// flagged block at the same threshold goes straight to lossless.
func TestPutSkipsFlaggedBlocks(t *testing.T) {
	s := openTest(t, Config{})
	vals := genF32(t, "normal", BlockValues, 1)
	if _, err := s.Put32("k", vals); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.FlaggedBlocks == 0 {
		t.Fatalf("setup: noise block not flagged")
	}
	before := snapCounters()
	res, err := s.Put32("k", genF32(t, "normal", BlockValues, 2))
	if err != nil {
		t.Fatal(err)
	}
	d := snapCounters().since(before)
	if d.skips == 0 {
		t.Errorf("re-put of flagged block did not skip compression (delta %+v)", d)
	}
	if res.LosslessBlocks != res.Blocks {
		t.Errorf("skipped block not stored lossless: %+v", res)
	}
	// The skipped block is still exact.
	got, err := get32(s, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != BlockValues {
		t.Fatalf("got %d values", len(got))
	}
}

func TestBackgroundCompactor(t *testing.T) {
	s := openTest(t, Config{
		SegmentTargetBytes: 64 << 10,
		CompactEvery:       5 * time.Millisecond,
	})
	fillAndFragment(t, s, "normal", 12)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().CompactionDebt < 0.3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if debt := s.Stats().CompactionDebt; debt >= 0.3 {
		t.Fatalf("background worker left compaction debt %.3f", debt)
	}
	// Store stays fully usable during/after background compaction.
	if _, err := get32(s, "churn"); err != nil && !errors.Is(err, ErrIncomplete) {
		t.Fatal(err)
	}
}

// TestCompactionPreservesTombstones: a deleted key must stay deleted
// after its tombstone's segment is compacted and the store reopened.
func TestCompactionPreservesTombstones(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, SegmentTargetBytes: 64 << 10})
	if _, err := s.Put32("doomed", genF32(t, "normal", BlockValues, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	// Push more data so the tombstone's segment seals and fragments.
	fillAndFragment(t, s, "normal", 10)
	for {
		_, did, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, Config{Dir: dir})
	if _, err := get32(r, "doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected after compaction+reopen: %v", err)
	}
}

func key(i int) string { return string(rune('a' + i)) }

// TestCompactionDrainsRecoveredActive: a reopened store adopts the
// newest recovered segment as active; if that segment carries most of
// the store's dead bytes, offline compaction must still converge to
// zero debt by sealing it (regression test for compaction stalling at
// high debt after a reopen).
func TestCompactionDrainsRecoveredActive(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, SegmentTargetBytes: 1 << 20})
	vals := genF32(t, "heat", BlockValues, 1)
	for i := 0; i < 40; i++ {
		if _, err := s.Put32("hot", vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, Config{Dir: dir, SegmentTargetBytes: 1 << 20})
	if debt := r.Stats().CompactionDebt; debt < 0.5 {
		t.Fatalf("setup: reopened store not fragmented (debt %.3f)", debt)
	}
	for {
		_, did, err := r.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	st := r.Stats()
	if st.DeadBytes != 0 {
		t.Fatalf("compaction left %d dead bytes (debt %.3f)", st.DeadBytes, st.CompactionDebt)
	}
	got, err := get32(r, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != BlockValues {
		t.Fatalf("got %d values after drain", len(got))
	}
}

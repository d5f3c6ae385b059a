package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avr/internal/store"
)

// fakeShard answers gets with whatever version body() renders, so the
// test can serve a corrupted or a stale value through the real client.
func fakeShard(t *testing.T, body func() []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/store/get":
			w.Write(body())
		case "/v1/store/put":
			json.NewEncoder(w).Encode(store.PutResult{Values: 4096})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func testKeys(t *testing.T) []keyData {
	t.Helper()
	keys, err := genKeys(&workload{Name: "t", Keys: 5, ValueBytes: 16 << 10}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestCheckerCatchesCorruptAndStaleReads(t *testing.T) {
	keys := testKeys(t)
	for _, k := range []int32{0, 3} { // heat and mixed: smooth and outlier-heavy
		var serve []byte
		srv := fakeShard(t, func() []byte { return serve })
		chk := newChecker(keys, 1.0/32)
		c := newClient(srv.URL, keys, chk, nil, 1)
		var sc scratch
		kd := &keys[k]

		// Version 0 is written and acknowledged; reading it back passes.
		if out := c.do(&op{kind: opPut, key: k}, now(), &sc); !out.ok {
			t.Fatal("put failed")
		}
		serve = kd.payload(0)
		c.do(&op{kind: opGet, key: k}, now(), &sc)
		if v := chk.violations(); len(v) != 0 {
			t.Fatalf("key %d: correct read flagged: %v", k, v)
		}

		// One value off by more than t1: corrupted.
		bad := kd.payload(0)
		f := math.Float32frombits(binary.LittleEndian.Uint32(bad[400:]))
		binary.LittleEndian.PutUint32(bad[400:], math.Float32bits(f*1.1))
		serve = bad
		c.do(&op{kind: opGet, key: k}, now(), &sc)
		if v := chk.violations(); len(v) != 1 || !strings.Contains(v[0], "matches none") {
			t.Fatalf("key %d: corrupted read not caught: %v", k, v)
		}

		// Version 1 is acknowledged; a read sent afterwards that returns
		// version 0 is stale.
		if out := c.do(&op{kind: opPut, key: k}, now(), &sc); !out.ok {
			t.Fatal("put failed")
		}
		serve = kd.payload(0)
		c.do(&op{kind: opGet, key: k}, now(), &sc)
		if v := chk.violations(); len(v) != 2 {
			t.Fatalf("key %d: stale read not caught: %v", k, v)
		}
		serve = kd.payload(1)
		c.do(&op{kind: opGet, key: k}, now(), &sc)
		if v := chk.violations(); len(v) != 2 {
			t.Fatalf("key %d: fresh read flagged: %v", k, v)
		}
	}
}

func TestCandidatesAllowConcurrentWrites(t *testing.T) {
	chk := newChecker(testKeys(t), 1.0/32)
	v0 := chk.begin(0, 10)
	chk.ack(0, v0, 20)
	v1 := chk.begin(0, 40)
	// A read overlapping the in-flight write may see either version; one
	// sent after its acknowledgement may see only the new one.
	if got := chk.candidates(0, 30, 50); len(got) != 2 {
		t.Fatalf("read concurrent with a write: candidates %v, want both", got)
	}
	chk.ack(0, v1, 60)
	if got := chk.candidates(0, 70, 80); len(got) != 1 || got[0] != v1 {
		t.Fatalf("read after the ack: candidates %v, want [%d]", got, v1)
	}
}

func TestQueryChecksUseTheReportedBound(t *testing.T) {
	kd := &testKeys(t)[2]
	tr := exactTruth(kd, 1, kd.lo, kd.hi)
	a := store.AggregateResult{Count: tr.count, Sum: tr.sum, Mean: tr.sum / float64(tr.count),
		Min: tr.min, Max: tr.max, QueryStats: store.QueryStats{Complete: true}}
	if !aggregateOK(a, tr) {
		t.Fatal("exact aggregate rejected")
	}
	a.Sum += 1
	a.ErrorBound = 0.5
	if aggregateOK(a, tr) {
		t.Fatal("aggregate outside its own error bound accepted")
	}
	a.ErrorBound = 2
	if !aggregateOK(a, tr) {
		t.Fatal("aggregate within its own error bound rejected")
	}
	f := store.FilterResult{Matches: tr.matches + 3, MatchesMin: tr.matches - 3, MatchesMax: tr.matches + 3,
		ErrorBound: 2, QueryStats: store.QueryStats{Complete: true}}
	if filterOK(f, tr) {
		t.Fatal("filter count outside its own error bound accepted")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestWindowRateDropsOutlyingWindows(t *testing.T) {
	// One op every 1 ms for 1 s, except one window that ran at half speed
	// and one that stalled: the middle windows still read 1000 ops/s.
	var ends []int64
	for ns := int64(0); ns < 1e9; {
		ends = append(ends, ns)
		switch {
		case ns >= 200e6 && ns < 300e6:
			ns += 2e6
		case ns >= 500e6 && ns < 600e6:
			ns += 50e6
		default:
			ns += 1e6
		}
	}
	if got := windowRate(ends, 0, time.Second); math.Abs(got-1000) > 1e-6 {
		t.Fatalf("windowRate = %v, want 1000", got)
	}
}

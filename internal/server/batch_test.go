package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"avr/internal/obs"
	"avr/internal/store"
)

// batchF32 serializes values for a batch item payload.
func batchF32(vals ...float32) []byte {
	b := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// TestBatchMputMgetRoundTrip: many keys in one round-trip, per-key
// results in request order, values back within the relative bound.
func TestBatchMputMgetRoundTrip(t *testing.T) {
	st, ts := storeServer(t, Config{})
	const keys, vn = 12, 40

	var preq BatchPutRequest
	want := make(map[string][]float32, keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("mk-%d", k)
		vals := make([]float32, vn)
		for i := range vals {
			vals[i] = float32(k+1) * (1 + 0.01*float32(i))
		}
		want[key] = vals
		preq.Items = append(preq.Items, BatchPutItem{Key: key, Data: batchF32(vals...)})
	}
	pb, _ := json.Marshal(preq)
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/store/mput", pb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mput: %d %s", resp.StatusCode, body)
	}
	var pres BatchPutResult
	if err := json.Unmarshal(body, &pres); err != nil {
		t.Fatal(err)
	}
	if len(pres.Results) != keys {
		t.Fatalf("mput returned %d results, want %d", len(pres.Results), keys)
	}
	for i, pr := range pres.Results {
		if pr.Key != fmt.Sprintf("mk-%d", i) {
			t.Fatalf("result %d is %q: request order not preserved", i, pr.Key)
		}
		if !pr.OK || pr.Values != vn {
			t.Fatalf("mput %s: %+v", pr.Key, pr)
		}
	}

	var greq BatchGetRequest
	for k := 0; k < keys; k++ {
		greq.Keys = append(greq.Keys, fmt.Sprintf("mk-%d", k))
	}
	gb, _ := json.Marshal(greq)
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/store/mget", gb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mget: %d %s", resp.StatusCode, body)
	}
	var gres BatchGetResult
	if err := json.Unmarshal(body, &gres); err != nil {
		t.Fatal(err)
	}
	t1 := st.T1()
	for _, gr := range gres.Results {
		if !gr.OK || !gr.Complete || gr.Width != 32 {
			t.Fatalf("mget %s: %+v", gr.Key, gr)
		}
		vals := want[gr.Key]
		if len(gr.Data) != 4*len(vals) {
			t.Fatalf("mget %s: %d bytes, want %d", gr.Key, len(gr.Data), 4*len(vals))
		}
		for i, w := range vals {
			g := math.Float32frombits(binary.LittleEndian.Uint32(gr.Data[4*i:]))
			if d := math.Abs(float64(g) - float64(w)); d > t1*math.Abs(float64(w))*(1+1e-9) {
				t.Fatalf("mget %s value %d: |%g-%g| out of bound", gr.Key, i, g, w)
			}
		}
	}
}

// TestBatchPartialFailure: bad items fail in place without failing the
// batch or the neighboring keys.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := storeServer(t, Config{})
	preq := BatchPutRequest{Items: []BatchPutItem{
		{Key: "good-1", Data: batchF32(1, 2, 3)},
		{Key: "bad-width", Width: 16, Data: batchF32(1)},
		{Key: "bad-data", Data: []byte{0xff}},
		{Key: "good-2", Width: 64, Data: []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
	}}
	pb, _ := json.Marshal(preq)
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/store/mput", pb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mput: %d %s", resp.StatusCode, body)
	}
	var pres BatchPutResult
	if err := json.Unmarshal(body, &pres); err != nil {
		t.Fatal(err)
	}
	wantOK := []bool{true, false, false, true}
	for i, pr := range pres.Results {
		if pr.OK != wantOK[i] {
			t.Fatalf("item %d (%s): ok=%v err=%q, want ok=%v", i, pr.Key, pr.OK, pr.Error, wantOK[i])
		}
		if !pr.OK && pr.Error == "" {
			t.Fatalf("item %d (%s): failed without an error message", i, pr.Key)
		}
	}

	// mget mixes hits and misses the same way.
	gb, _ := json.Marshal(BatchGetRequest{Keys: []string{"good-1", "nope", "good-2"}})
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/store/mget", gb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mget: %d %s", resp.StatusCode, body)
	}
	var gres BatchGetResult
	if err := json.Unmarshal(body, &gres); err != nil {
		t.Fatal(err)
	}
	if !gres.Results[0].OK || gres.Results[0].Width != 32 {
		t.Fatalf("good-1: %+v", gres.Results[0])
	}
	if gres.Results[1].OK || !gres.Results[1].NotFound {
		t.Fatalf("nope: %+v, want not_found", gres.Results[1])
	}
	if !gres.Results[2].OK || gres.Results[2].Width != 64 {
		t.Fatalf("good-2: %+v", gres.Results[2])
	}
}

// TestBatchKeysEndpoint: GET /v1/store/key lists the live key set.
func TestBatchKeysEndpoint(t *testing.T) {
	_, ts := storeServer(t, Config{})
	for _, k := range []string{"b", "a", "c"} {
		resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key="+k, batchF32(1, 2))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %s: %d %s", k, resp.StatusCode, body)
		}
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/store/key", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keys: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-AVR-Keys"); got != "3" {
		t.Fatalf("X-AVR-Keys %q, want 3", got)
	}
	var kl struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal(body, &kl); err != nil {
		t.Fatal(err)
	}
	if len(kl.Keys) != 3 || kl.Keys[0] != "a" || kl.Keys[1] != "b" || kl.Keys[2] != "c" {
		t.Fatalf("keys %v, want sorted [a b c]", kl.Keys)
	}
}

// TestBatchRejectsEmpty: empty batches are client errors, not no-ops.
func TestBatchRejectsEmpty(t *testing.T) {
	_, ts := storeServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/store/mput", `{"items":[]}`},
		{"/v1/store/mput", `not json`},
		{"/v1/store/mget", `{"keys":[]}`},
		{"/v1/store/mget", `{`},
	} {
		resp, _ := doReq(t, http.MethodPost, ts.URL+c.path, []byte(c.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with %q: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

// TestReadyzReflectsStoreHealth is the regression test for the drain
// gap: /readyz said ready after the store had been closed underneath
// the server, so load balancers kept routing writes into ErrClosed.
func TestReadyzReflectsStoreHealth(t *testing.T) {
	st, ts := storeServer(t, Config{})

	resp, body := doReq(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with a live store: %d %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("ready")) {
		t.Fatalf("readyz body %q", body)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body = doReq(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a closed store: %d %s, want 503", resp.StatusCode, body)
	}
}

// TestMgetReadsThroughCache: mget serves keys through the store's read
// cache, so once the first read's background fill lands, repeating the
// mget counts cache hits.
func TestMgetReadsThroughCache(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), CacheBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := testServer(t, Config{Store: st})
	_, payload := f32Payload(t, "heat", 6000, 1)
	if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=k", payload); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	mget, _ := json.Marshal(BatchGetRequest{Keys: []string{"k"}})
	before := obs.CacheHits.Value()
	for deadline := time.Now().Add(5 * time.Second); obs.CacheHits.Value() == before; {
		if time.Now().After(deadline) {
			t.Fatal("repeated mget never hit the read cache")
		}
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/store/mget", mget)
		var res BatchGetResult
		if err := json.Unmarshal(body, &res); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("mget: %d %s", resp.StatusCode, body)
		}
		if r := res.Results[0]; !r.OK || len(r.Data) != len(payload) {
			t.Fatalf("mget result %+v", r)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"avr/internal/server"
)

// hop is one rung of the unloaded hop ladder: the same request timed
// one at a time at successively outer entry points.
type hop struct {
	name       string
	us, allocs float64
}

// hopWorkload is the ladder's own small stack: three shards with avrd's
// default store settings behind the router, 64 KiB fp32 values.
var hopWorkload = &workload{
	Name: "hop", Routed: true, Keys: 16, ValueBytes: 64 << 10, Batch: 8,
	Store: storeSettings{CacheBytes: 64 << 20, Prefetch: true, CompactEvery: 30 * time.Second},
}

// measure times n calls of f after a few untimed ones and returns
// microseconds and heap allocations per call (process-wide, so the
// server side of an in-process round trip counts too).
func measure(n int, f func() error) (float64, float64, error) {
	for i := 0; i < 5; i++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / 1e3 / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// runHops measures get, put and 8-key mget at each hop: the store call,
// the shard handler via a recorder, a loopback avrd, and the router.
func runHops(outDir string) ([]hop, error) {
	w := hopWorkload
	keys, err := genKeys(w, 1)
	if err != nil {
		return nil, err
	}
	st, err := startStack(w, runDir(outDir, 99), nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	sh := st.shards[0]
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()

	vals := keys[0].base32
	raw := keys[0].payload(0)
	mget := server.BatchGetRequest{}
	for i := range keys[:8] {
		mget.Keys = append(mget.Keys, keys[i].name)
		if _, err := sh.st.Put32(keys[i].name, keys[i].base32); err != nil {
			return nil, err
		}
	}
	mgetBody, _ := json.Marshal(mget)
	dst := make([]float32, 0, len(vals))

	// call issues one request to h (in-process) or to base (over HTTP).
	call := func(h http.Handler, base, method, path string, body []byte) error {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if h != nil {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				return fmt.Errorf("%s %s: status %d", method, path, rr.Code)
			}
			return nil
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		return err
	}
	getPath := "/v1/store/get?key=" + keys[0].name
	putPath := "/v1/store/put?key=" + keys[0].name
	rungs := []struct {
		name string
		n    int
		f    func() error
	}{
		{"store.unloaded_get", 500, func() error { dst, _, err = sh.st.Get32IntoCached(dst[:0], keys[0].name, nil); return err }},
		{"store.unloaded_put", 200, func() error { _, err := sh.st.Put32(keys[0].name, vals); return err }},
		{"server.unloaded_get", 300, func() error { return call(sh.srv.Handler(), "http://shard", http.MethodGet, getPath, nil) }},
		{"server.unloaded_put", 200, func() error { return call(sh.srv.Handler(), "http://shard", http.MethodPut, putPath, raw) }},
		{"server.unloaded_mget8", 40, func() error {
			return call(sh.srv.Handler(), "http://shard", http.MethodPost, "/v1/store/mget", mgetBody)
		}},
		{"net.unloaded_get", 300, func() error { return call(nil, "http://"+sh.addr, http.MethodGet, getPath, nil) }},
		{"net.unloaded_put", 200, func() error { return call(nil, "http://"+sh.addr, http.MethodPut, putPath, raw) }},
		{"net.unloaded_mget8", 40, func() error { return call(nil, "http://"+sh.addr, http.MethodPost, "/v1/store/mget", mgetBody) }},
		// The router rungs write first so every key has both replicas.
		{"cluster.unloaded_put", 200, func() error { return call(nil, st.top, http.MethodPut, putPath, raw) }},
		{"cluster.unloaded_get", 300, func() error { return call(nil, st.top, http.MethodGet, getPath, nil) }},
		{"cluster.unloaded_mget8", 40, func() error { return call(nil, st.top, http.MethodPost, "/v1/store/mget", mgetBody) }},
	}
	for i := range keys[:8] {
		if err := call(nil, st.top, http.MethodPut, "/v1/store/put?key="+keys[i].name, keys[i].payload(0)); err != nil {
			return nil, err
		}
	}
	var out []hop
	for _, r := range rungs {
		u, a, err := measure(r.n, r.f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		out = append(out, hop{r.name, u, a})
	}
	return out, nil
}

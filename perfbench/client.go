package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/trace"
)

// client issues the benchmark's requests against the stack's top
// listener, checks every response, and (when traced) records the
// client span of each request.
type client struct {
	hc   *http.Client
	base string
	keys []keyData
	chk  *checker
	rec  *recorder // nil: untraced
	seq  atomic.Uint64

	mu       sync.Mutex
	failures []string // first few failed requests, for the run's report
}

// noteFailure records why a request failed (status 0: transport error).
func (c *client) noteFailure(what string, status int, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf("%s: status %d: %.200s", what, status, body))
	}
}

func newClient(base string, keys []keyData, chk *checker, rec *recorder, conns int) *client {
	return &client{
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		base: base, keys: keys, chk: chk, rec: rec,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) traced() bool { return c.rec != nil && c.rec.on.Load() }

// outcome is one finished request as the client saw it.
type outcome struct {
	ok         bool
	send, recv int64 // ns since epoch
	done       int64 // after client decode
	wire, raw  int64
}

// scratch is one worker's reusable buffers.
type scratch struct {
	body bytes.Buffer
	vals []float64
}

// roundTrip sends one request and reads the whole response body into
// sc.body. It returns the HTTP status (0 on transport error) and the
// send and receive times.
func (c *client) roundTrip(req *http.Request, sc *scratch, id uint64) (int, int64, int64) {
	if c.traced() {
		req.Header[trace.TraceHeader] = []string{trace.FormatID(id)}
	}
	send := now()
	sc.body.Reset()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.noteFailure(req.Method+" "+req.URL.Path, 0, []byte(err.Error()))
		return 0, send, now()
	}
	_, err = sc.body.ReadFrom(resp.Body)
	resp.Body.Close()
	recv := now()
	if err != nil {
		c.noteFailure(req.Method+" "+req.URL.Path, 0, []byte(err.Error()))
		return 0, send, recv
	}
	if resp.StatusCode != http.StatusOK {
		c.noteFailure(req.Method+" "+req.URL.String(), resp.StatusCode, sc.body.Bytes())
	}
	return resp.StatusCode, send, recv
}

// do runs one op to completion and checks its answer.
func (c *client) do(o *op, intended int64, sc *scratch) outcome {
	id := c.seq.Add(1)
	var out outcome
	switch o.kind {
	case opGet:
		out = c.get(o, sc, id)
	case opPut:
		out = c.put(o, sc, id)
	case opQuery:
		out = c.query(o, sc, id)
	case opMget:
		out = c.mget(o, sc, id)
	case opMput:
		out = c.mput(o, sc, id)
	}
	if c.traced() {
		c.rec.add(span{id: id, layer: layerClient, op: o.kind, node: -1,
			intended: intended, start: out.send, recv: out.recv, end: out.done})
	}
	return out
}

func (c *client) keyURL(path string, k int32) string {
	return c.base + path + "?key=" + url.QueryEscape(c.keys[k].name)
}

func (c *client) get(o *op, sc *scratch, id uint64) outcome {
	req, _ := http.NewRequest(http.MethodGet, c.keyURL("/v1/store/get", o.key), nil)
	status, send, recv := c.roundTrip(req, sc, id)
	out := outcome{send: send, recv: recv, done: recv}
	if status != http.StatusOK {
		return out
	}
	// Client decode: the wire bytes become values the caller can use.
	kd := &c.keys[o.key]
	got := sc.body.Bytes()
	sc.vals = decodeValues(sc.vals[:0], got, kd.width)
	out.done = now()
	c.chk.checkRead(o.key, send, recv, sc.vals)
	out.ok = true
	out.wire = int64(len(got))
	out.raw = int64(len(got))
	return out
}

// decodeValues appends the raw little-endian values of the given width
// to dst: the client-side decode of a get.
func decodeValues(dst []float64, raw []byte, width int) []float64 {
	if width == 32 {
		for i := 0; i+4 <= len(raw); i += 4 {
			dst = append(dst, float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))))
		}
		return dst
	}
	for i := 0; i+8 <= len(raw); i += 8 {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
	}
	return dst
}

func (c *client) put(o *op, sc *scratch, id uint64) outcome {
	kd := &c.keys[o.key]
	ver := c.chk.begin(o.key, now())
	body := kd.payload(ver)
	u := c.keyURL("/v1/store/put", o.key)
	if kd.width == 64 {
		u += "&width=64"
	}
	req, _ := http.NewRequest(http.MethodPut, u, bytes.NewReader(body))
	status, send, recv := c.roundTrip(req, sc, id)
	out := outcome{send: send, recv: recv, done: recv}
	if status != http.StatusOK {
		return out
	}
	var res store.PutResult
	err := json.Unmarshal(sc.body.Bytes(), &res)
	out.done = now()
	if err != nil || res.Values != kd.values() {
		c.chk.fail("put %s: bad result %q", kd.name, sc.body.String())
		return out
	}
	c.chk.ack(o.key, ver, recv)
	out.ok = true
	out.wire = int64(len(body) + sc.body.Len())
	out.raw = int64(len(body))
	return out
}

func (c *client) query(o *op, sc *scratch, id uint64) outcome {
	kd := &c.keys[o.key]
	u := c.keyURL("/v1/store/query", o.key)
	// The filter range sits in the middle of the span of the 1.2x
	// version, so it cuts through every version's values.
	lo, hi := kd.lo*versionMult[1], kd.hi*versionMult[1]
	if o.filter {
		u += "&op=filter&lo=" + url.QueryEscape(strconv.FormatFloat(lo, 'g', -1, 64)) +
			"&hi=" + url.QueryEscape(strconv.FormatFloat(hi, 'g', -1, 64))
	}
	req, _ := http.NewRequest(http.MethodGet, u, nil)
	status, send, recv := c.roundTrip(req, sc, id)
	out := outcome{send: send, recv: recv, done: recv}
	if status != http.StatusOK {
		return out
	}
	var err error
	if o.filter {
		var f store.FilterResult
		err = json.Unmarshal(sc.body.Bytes(), &f)
		out.done = now()
		if err == nil {
			c.chk.checkFilter(o.key, send, recv, lo, hi, f)
		}
	} else {
		var a store.AggregateResult
		err = json.Unmarshal(sc.body.Bytes(), &a)
		out.done = now()
		if err == nil {
			c.chk.checkAggregate(o.key, send, recv, a)
		}
	}
	if err != nil {
		c.chk.fail("query %s: undecodable answer: %v", kd.name, err)
		return out
	}
	out.ok = true
	out.wire = int64(sc.body.Len())
	return out
}

func (c *client) mget(o *op, sc *scratch, id uint64) outcome {
	req := server.BatchGetRequest{Keys: make([]string, len(o.keys))}
	for i, k := range o.keys {
		req.Keys[i] = c.keys[k].name
	}
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, c.base+"/v1/store/mget", bytes.NewReader(body))
	status, send, recv := c.roundTrip(hreq, sc, id)
	out := outcome{send: send, recv: recv, done: recv}
	if status != http.StatusOK {
		return out
	}
	var res server.BatchGetResult
	err := json.Unmarshal(sc.body.Bytes(), &res)
	sc.vals = sc.vals[:0]
	if err == nil {
		for _, it := range res.Results {
			sc.vals = decodeValues(sc.vals, it.Data, it.Width)
		}
	}
	out.done = now()
	if err != nil || len(res.Results) != len(o.keys) {
		c.chk.fail("mget: undecodable or short answer (%v)", err)
		return out
	}
	vals := sc.vals
	for i, it := range res.Results {
		k := o.keys[i]
		kd := &c.keys[k]
		n := len(it.Data) * 8 / max(it.Width, 8)
		if !it.OK || !it.Complete || it.Key != kd.name || it.Width != kd.width || n > len(vals) {
			c.chk.fail("mget %s: item not ok: %s", kd.name, it.Error)
			return out
		}
		c.chk.checkRead(k, send, recv, vals[:n])
		vals = vals[n:]
		out.raw += int64(len(it.Data))
	}
	out.ok = true
	out.wire = int64(len(body) + sc.body.Len())
	return out
}

func (c *client) mput(o *op, sc *scratch, id uint64) outcome {
	req := server.BatchPutRequest{Items: make([]server.BatchPutItem, len(o.keys))}
	vers := make([]uint32, len(o.keys))
	var raw int64
	for i, k := range o.keys {
		vers[i] = c.chk.begin(k, now())
		kd := &c.keys[k]
		req.Items[i] = server.BatchPutItem{Key: kd.name, Width: kd.width, Data: kd.payload(vers[i])}
		raw += int64(kd.rawBytes())
	}
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, c.base+"/v1/store/mput", bytes.NewReader(body))
	status, send, recv := c.roundTrip(hreq, sc, id)
	out := outcome{send: send, recv: recv, done: recv}
	if status != http.StatusOK {
		return out
	}
	var res server.BatchPutResult
	err := json.Unmarshal(sc.body.Bytes(), &res)
	out.done = now()
	if err != nil || len(res.Results) != len(o.keys) {
		c.chk.fail("mput: undecodable or short answer (%v)", err)
		return out
	}
	for i, it := range res.Results {
		if !it.OK || it.Values != c.keys[o.keys[i]].values() {
			c.chk.fail("mput %s: item not ok: %s", c.keys[o.keys[i]].name, it.Error)
			return out
		}
		c.chk.ack(o.keys[i], vers[i], recv)
	}
	out.ok = true
	out.wire = int64(len(body) + sc.body.Len())
	out.raw = raw
	return out
}

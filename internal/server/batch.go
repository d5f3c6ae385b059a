package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"avr/internal/obs"
	"avr/internal/store"
	"avr/internal/trace"
)

// Batched store endpoints: one HTTP round-trip moves many keys, so a
// router tier (internal/cluster) amortizes its per-node fan-out and a
// client amortizes connection overhead. The wire format is JSON with
// base64 value payloads (encoding/json's native []byte form) — the
// batch paths trade the raw-octet efficiency of put/get for
// per-key success/error reporting, which is what a partial-failure-
// tolerant batch API needs.
//
//	POST /v1/store/mput   BatchPutRequest in, BatchPutResult out
//	POST /v1/store/mget   BatchGetRequest in, BatchGetResult out
//	GET  /v1/store/key    {"keys":[...]} — every live key, sorted
//
// A batch holds one admission slot for its whole run: admission bounds
// concurrent work, and a batch is one unit of work whose cost scales
// with its item count (cap batches client-side; the body cap bounds
// the worst case).

// BatchPutItem is one key's payload in a batched put: raw little-endian
// values, base64-encoded on the wire. Width 0 defaults to 32.
type BatchPutItem struct {
	Key   string `json:"key"`
	Width int    `json:"width,omitempty"`
	Data  []byte `json:"data"`
}

// BatchPutRequest is the /v1/store/mput body.
type BatchPutRequest struct {
	Items []BatchPutItem `json:"items"`
}

// BatchPutItemResult reports one key's outcome in a batched put. OK
// false carries the error; the put result fields are zero. Replicas is
// filled by the router tier (how many replica writes succeeded) and 0
// on a single node.
type BatchPutItemResult struct {
	Key      string  `json:"key"`
	OK       bool    `json:"ok"`
	Error    string  `json:"error,omitempty"`
	Values   int     `json:"values,omitempty"`
	Blocks   int     `json:"blocks,omitempty"`
	Ratio    float64 `json:"ratio,omitempty"`
	Replicas int     `json:"replicas,omitempty"`
}

// BatchPutResult is the /v1/store/mput response: one result per
// request item, in request order. The HTTP status is 200 whenever the
// batch executed — per-key failures are data, not transport errors.
type BatchPutResult struct {
	Results []BatchPutItemResult `json:"results"`
}

// BatchGetRequest is the /v1/store/mget body.
type BatchGetRequest struct {
	Keys []string `json:"keys"`
}

// BatchGetItemResult reports one key's outcome in a batched get: raw
// little-endian values base64-encoded, the width they were stored at,
// and Complete false when a torn tail left only a prefix (the batch
// analogue of a 206 get). NotFound distinguishes a missing key from a
// read failure so callers can treat the two differently.
type BatchGetItemResult struct {
	Key      string `json:"key"`
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
	NotFound bool   `json:"not_found,omitempty"`
	Width    int    `json:"width,omitempty"`
	Complete bool   `json:"complete,omitempty"`
	Data     []byte `json:"data,omitempty"`
}

// BatchGetResult is the /v1/store/mget response, in request key order.
type BatchGetResult struct {
	Results []BatchGetItemResult `json:"results"`
}

// registerBatch wires the batched store endpoints onto the mux.
func (s *Server) registerBatch() {
	s.mux.HandleFunc("POST /v1/store/mput", s.handleStoreMput)
	s.mux.HandleFunc("POST /v1/store/mget", s.handleStoreMget)
	s.mux.HandleFunc("GET /v1/store/key", s.handleStoreKeys)
}

// handleStoreMput serves POST /v1/store/mput: many keys per round-trip,
// per-key success/error reporting.
func (s *Server) handleStoreMput(w http.ResponseWriter, r *http.Request) {
	sp := s.tracer.Start()
	defer s.tracer.Finish("mput", sp)
	sp.WriteID(w.Header())
	obs.ServerInFlight.Add(1)
	defer obs.ServerInFlight.Add(-1)

	body, err := s.readBody(w, r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			fail(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d bytes", s.cfg.MaxBodyBytes)
		} else {
			fail(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return
	}
	var req BatchPutRequest
	if err := json.Unmarshal(body, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad mput body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		fail(w, http.StatusBadRequest, "mput body has no items")
		return
	}

	if !s.gate.Admit(w, r, sp) {
		return
	}
	defer s.gate.Release()

	res := BatchPutResult{Results: make([]BatchPutItemResult, len(req.Items))}
	var bytesIn int64
	for i, it := range req.Items {
		out := &res.Results[i]
		out.Key = it.Key
		width := it.Width
		if width == 0 {
			width = 32
		}
		if width != 32 && width != 64 {
			out.Error = "bad width: want 32 or 64"
			continue
		}
		if len(it.Data) == 0 || len(it.Data)%(width/8) != 0 {
			out.Error = "data length not a positive multiple of the value width"
			continue
		}
		pr, perr := putValues(s.cfg.Store, it.Key, width, it.Data, sp)
		if perr != nil {
			out.Error = perr.Error()
			continue
		}
		out.OK = true
		out.Values = pr.Values
		out.Blocks = pr.Blocks
		out.Ratio = pr.Ratio
		bytesIn += int64(len(it.Data))
	}
	obs.ServerBytesIn.Add(bytesIn)

	writeBatchJSON(w, sp, res)
}

// handleStoreMget serves POST /v1/store/mget: many keys per round-trip,
// per-key values or errors.
func (s *Server) handleStoreMget(w http.ResponseWriter, r *http.Request) {
	sp := s.tracer.Start()
	defer s.tracer.Finish("mget", sp)
	sp.WriteID(w.Header())
	obs.ServerInFlight.Add(1)
	defer obs.ServerInFlight.Add(-1)

	body, err := s.readBody(w, r)
	if err != nil {
		fail(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var req BatchGetRequest
	if err := json.Unmarshal(body, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad mget body: %v", err)
		return
	}
	if len(req.Keys) == 0 {
		fail(w, http.StatusBadRequest, "mget body has no keys")
		return
	}

	if !s.gate.Admit(w, r, sp) {
		return
	}
	defer s.gate.Release()

	res := BatchGetResult{Results: make([]BatchGetItemResult, len(req.Keys))}
	var bytesOut int64
	for i, key := range req.Keys {
		out := &res.Results[i]
		out.Key = key
		v32, v64, width, _, gerr := s.cfg.Store.Get(key, sp)
		incomplete := errors.Is(gerr, store.ErrIncomplete)
		if gerr != nil && !incomplete {
			out.Error = gerr.Error()
			out.NotFound = errors.Is(gerr, store.ErrNotFound)
			continue
		}
		out.OK = true
		out.Width = width
		out.Complete = !incomplete
		out.Data = appendF64(appendF32(make([]byte, 0, 4*len(v32)+8*len(v64)), v32), v64)
		bytesOut += int64(len(out.Data))
	}
	obs.ServerBytesOut.Add(bytesOut)

	writeBatchJSON(w, sp, res)
}

// handleStoreKeys serves GET /v1/store/key: every live key, sorted —
// the iteration surface cluster-wide offline verification fans out
// over.
func (s *Server) handleStoreKeys(w http.ResponseWriter, r *http.Request) {
	keys := s.cfg.Store.Keys()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-AVR-Keys", strconv.Itoa(len(keys)))
	enc := json.NewEncoder(w)
	enc.Encode(struct {
		Keys []string `json:"keys"`
	}{Keys: keys})
}

// writeBatchJSON writes one batch response with trace headers.
func writeBatchJSON(w http.ResponseWriter, sp *trace.Span, res any) {
	body, err := json.Marshal(res)
	if err != nil {
		fail(w, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	sp.WriteHeaders(w.Header())
	if _, err := w.Write(body); err != nil {
		obs.ServerErrors.Add(1)
	}
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"avr/internal/cluster"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/trace"
)

// shard is one avrd: a store behind server.New(..).Handler() on a
// loopback listener.
type shard struct {
	name string
	dir  string
	st   *store.Store
	srv  *server.Server
	hs   *http.Server
	addr string
}

// stack is the serving stack under test, run in this process.
type stack struct {
	dir    string
	shards []*shard
	router *cluster.Router
	rhs    *http.Server
	top    string // base URL the client talks to
	t1     float64
	wg     sync.WaitGroup
}

// serve runs h on a fresh loopback listener.
func (s *stack) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return hs, ln.Addr().String(), nil
}

// startStack opens the stores and servers for w under dir. rec, when
// non-nil, wraps every Handler() so it records spans.
func startStack(w *workload, dir string, rec *recorder) (*stack, error) {
	s := &stack{dir: dir, t1: server.QuantizeT1(0)}
	n := 1
	if w.Routed {
		n = 3
	}
	for i := 0; i < n; i++ {
		sh := &shard{name: fmt.Sprintf("shard%d", i), dir: filepath.Join(dir, fmt.Sprintf("shard%d", i))}
		st, err := store.Open(store.Config{
			Dir:                sh.dir,
			T1:                 s.t1,
			SegmentTargetBytes: w.Store.SegmentBytes,
			CompactEvery:       w.Store.CompactEvery,
			CacheBytes:         w.Store.CacheBytes,
			Prefetch:           w.Store.Prefetch,
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("opening %s: %w", sh.name, err)
		}
		sh.st = st
		sh.srv = server.New(server.Config{Store: st})
		s.shards = append(s.shards, sh)
		hs, addr, err := s.serve(rec.wrap(layerServer, i, sh.srv.Handler()))
		if err != nil {
			s.close()
			return nil, err
		}
		sh.hs, sh.addr = hs, addr
	}
	s.top = "http://" + s.shards[0].addr
	if w.Routed {
		topo := cluster.Topology{Replication: 2}
		for _, sh := range s.shards {
			topo.Nodes = append(topo.Nodes, cluster.Node{Name: sh.name, Addr: sh.addr})
		}
		ro, err := cluster.New(cluster.Config{Topology: topo})
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = ro
		hs, addr, err := s.serve(rec.wrap(layerCluster, -1, ro.Handler()))
		if err != nil {
			s.close()
			return nil, err
		}
		s.rhs, s.top = hs, "http://"+addr
	}
	return s, nil
}

// close shuts every server and store down, waits for the serve loops
// and removes the data directory.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.rhs != nil {
		_ = s.rhs.Shutdown(ctx)
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, sh := range s.shards {
		if sh.hs != nil {
			_ = sh.hs.Shutdown(ctx)
		}
		if sh.st != nil {
			_ = sh.st.Close()
		}
	}
	s.wg.Wait()
	_ = os.RemoveAll(s.dir)
}

// storeTotals sums the on-disk bytes of live frames and the raw bytes
// they hold over every shard.
func (s *stack) storeTotals() (live, raw int64) {
	for _, sh := range s.shards {
		st := sh.st.Stats()
		live += st.LiveBytes
		raw += st.RawBytes
	}
	return live, raw
}

// cacheResident sums the read-cache bytes every shard holds.
func (s *stack) cacheResident() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.st.CacheSnapshot().ResidentBytes
	}
	return n
}

// segmentBytes lists the size of every segment file in every shard.
func (s *stack) segmentBytes(into map[string]int64) {
	for _, sh := range s.shards {
		ents, err := os.ReadDir(sh.dir)
		if err != nil {
			continue
		}
		for _, e := range ents {
			if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
				p := filepath.Join(sh.dir, e.Name())
				if info.Size() > into[p] {
					into[p] = info.Size()
				}
			}
		}
	}
}

// Span layers, outermost first.
const (
	layerClient uint8 = iota
	layerCluster
	layerServer
)

var layerNames = [...]string{"client", "cluster", "server"}

// span is one layer's view of one request. Client spans carry the
// intended send time and the client's own phases; server and cluster
// spans carry the stage durations the handler advertised.
type span struct {
	id     uint64
	layer  uint8
	op     opKind
	node   int8
	start  int64 // ns since epoch
	end    int64
	stages [trace.NumStages]int64
	// server get spans: raw value bytes served
	rawBytes int64
	// client spans only
	intended, recv int64
}

// recorder collects spans in memory while on. A nil recorder wraps
// nothing, so untraced runs serve the program's handlers directly.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (rc *recorder) add(sp span) {
	rc.mu.Lock()
	rc.spans = append(rc.spans, sp)
	rc.mu.Unlock()
}

// take returns and clears the recorded spans.
func (rc *recorder) take() []span {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := rc.spans
	rc.spans = nil
	return out
}

func opOfPath(p string) (opKind, bool) {
	switch p {
	case "/v1/store/get":
		return opGet, true
	case "/v1/store/put":
		return opPut, true
	case "/v1/store/query":
		return opQuery, true
	case "/v1/store/mget":
		return opMget, true
	case "/v1/store/mput":
		return opMput, true
	}
	return 0, false
}

// wrap returns h with a span recorder around it: one span per store
// request, joined to the client's by the X-AVR-Trace id the client sets
// and the router forwards, with the handler's X-AVR-Stage-* headers as
// child stage durations.
func (rc *recorder) wrap(layer uint8, node int, h http.Handler) http.Handler {
	if rc == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, isOp := opOfPath(r.URL.Path)
		if !rc.on.Load() || !isOp {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(trace.TraceHeader), 16, 64)
		sp := span{id: id, layer: layer, op: op, node: int8(node), start: now()}
		h.ServeHTTP(w, r)
		sp.end = now()
		hdr := w.Header()
		for st := 0; st < trace.NumStages; st++ {
			if v := hdr.Get(trace.HeaderKey(trace.Stage(st))); v != "" {
				sp.stages[st], _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			}
		}
		if op == opGet {
			n, _ := strconv.ParseInt(hdr.Get("X-AVR-Values"), 10, 64)
			wd, _ := strconv.ParseInt(hdr.Get("X-AVR-Width"), 10, 64)
			sp.rawBytes = n * wd / 8
		}
		rc.add(sp)
	})
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"avr/internal/trace"
)

// layerReport is the traced run's per-layer view.
type layerReport struct {
	serverSelf, clusterSelf   [numOps][]float64 // us
	unattributed, decode      [numOps][]float64 // us
	hop                       []float64         // us
	serverQueue, clusterQueue []float64         // us
	stage                     [trace.NumStages][]float64
	clusterSpans, serverSpans int
	encodeNs, decodeNs        int64
	decodedBytes              int64
	storeStageUs, framingUs   float64
	requests                  int
	resident                  int64 // read-cache bytes held by every shard at the end
	counters                  counters
	overheadPct               float64
}

// storeStages are the stages spent inside the store (and its read
// cache), as opposed to admission and framing.
var storeStages = []trace.Stage{
	trace.StageEncode, trace.StageDecode, trace.StageSegRead, trace.StageSegWrite,
	trace.StageLock, trace.StageQuery, trace.StageCacheHit,
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func (sp *span) dur() int64 { return sp.end - sp.start }

func (sp *span) stageSum(sts ...trace.Stage) int64 {
	var n int64
	for _, st := range sts {
		n += sp.stages[st]
	}
	return n
}

// covered returns how much of [lo, hi) the spans cover.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var n, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		n += v.b - max(v.a, end)
		end = v.b
	}
	return n
}

var allStages = func() []trace.Stage {
	var out []trace.Stage
	for st := 0; st < trace.NumStages; st++ {
		out = append(out, trace.Stage(st))
	}
	return out
}()

// analyze joins each request's client, router and shard spans by trace
// id and derives self times. Self time is a span's duration minus what
// its children cover: a shard's children are its stage headers; the
// router's are its shard legs; the client's are the top server span and
// its own decode.
func analyze(spans []span) *layerReport {
	type req struct {
		client  *span
		cluster *span
		servers []span
	}
	byID := map[uint64]*req{}
	get := func(id uint64) *req {
		r := byID[id]
		if r == nil {
			r = &req{}
			byID[id] = r
		}
		return r
	}
	lr := &layerReport{}
	for i := range spans {
		sp := &spans[i]
		r := get(sp.id)
		switch sp.layer {
		case layerClient:
			r.client = sp
		case layerCluster:
			r.cluster = sp
			lr.clusterSpans++
		case layerServer:
			r.servers = append(r.servers, *sp)
			lr.serverSpans++
		}
	}
	for _, r := range byID {
		for i := range r.servers {
			s := &r.servers[i]
			self := s.dur() - s.stageSum(allStages...)
			lr.serverSelf[s.op] = append(lr.serverSelf[s.op], us(self))
			lr.serverQueue = append(lr.serverQueue, us(s.stages[trace.StageQueue]))
			for st := 0; st < trace.NumStages; st++ {
				if d := s.stages[st]; d > 0 {
					lr.stage[st] = append(lr.stage[st], us(d))
				}
			}
			lr.encodeNs += s.stages[trace.StageEncode]
			if s.op == opGet && s.stages[trace.StageDecode] > 0 {
				lr.decodeNs += s.stages[trace.StageDecode]
				lr.decodedBytes += s.rawBytes
			}
			lr.storeStageUs += us(s.stageSum(storeStages...))
			lr.framingUs += us(self)
		}
		if r.cluster != nil {
			c := r.cluster
			self := c.dur() - covered(c.start, c.end, r.servers)
			lr.clusterSelf[c.op] = append(lr.clusterSelf[c.op], us(self))
			lr.clusterQueue = append(lr.clusterQueue, us(c.stages[trace.StageQueue]))
			lr.framingUs += us(self)
		}
		cl := r.client
		if cl == nil {
			continue
		}
		lr.requests++
		top := r.cluster
		if top == nil && len(r.servers) > 0 {
			top = &r.servers[0]
		}
		dec := cl.end - cl.recv
		lr.decode[cl.op] = append(lr.decode[cl.op], us(dec))
		lr.framingUs += us(dec)
		e2e := cl.end - cl.intended
		if top == nil {
			continue
		}
		lr.hop = append(lr.hop, us(cl.recv-cl.start-top.dur()))
		// Attributed: the generator's wait, the client's decode, and the
		// stages the program itself reports on the critical path (the
		// router's queue and route, plus the longest shard leg's stages).
		attributed := (cl.start - cl.intended) + dec
		if r.cluster != nil {
			attributed += r.cluster.stageSum(trace.StageQueue, trace.StageRoute)
		}
		var leg *span
		for i := range r.servers {
			if leg == nil || r.servers[i].dur() > leg.dur() {
				leg = &r.servers[i]
			}
		}
		if leg != nil {
			attributed += leg.stageSum(allStages...)
		}
		lr.unattributed[cl.op] = append(lr.unattributed[cl.op], us(e2e-attributed))
	}
	return lr
}

// emit writes every per-layer metric into res. A metric whose layer the
// workload does not reach reads 0 (the router on hot-read).
func (lr *layerReport) emit(res *result) {
	d := lr.counters
	p50 := func(xs []float64) float64 { return percentile(xs, 50) }
	p99 := func(xs []float64) float64 { return percentile(xs, 99) }

	res.set("readcache.hit_ratio", d.hitRatio(), "ratio")
	res.set("readcache.hit_us_p50", p50(lr.stage[trace.StageCacheHit]), "us")
	res.set("readcache.evictions", d["avr.cache_evictions"], "count")
	res.set("readcache.resident_bytes", float64(lr.resident), "B")
	res.set("readcache.prefetch_useful_ratio", ratio(d["avr.prefetch_useful"], d["avr.prefetch_issued"]), "ratio")

	for k := opKind(0); k < numOps; k++ {
		res.set("server."+k.String()+"_self_us_p50", p50(lr.serverSelf[k]), "us")
		res.set("cluster."+k.String()+"_self_us_p50", p50(lr.clusterSelf[k]), "us")
		res.set("trace."+k.String()+"_unattributed_us", p50(lr.unattributed[k]), "us")
	}
	res.set("server.queue_us_p99", p99(lr.serverQueue), "us")
	res.set("server.shed", d["avr.server_shed"], "count")
	res.set("cluster.get_self_us_p99", p99(lr.clusterSelf[opGet]), "us")
	res.set("cluster.legs_per_op", ratio(float64(lr.serverSpans), float64(lr.clusterSpans)), "ratio")
	res.set("cluster.queue_us_p99", p99(lr.clusterQueue), "us")
	res.set("cluster.failovers", d["avr.router_failovers"], "count")
	res.set("cluster.retries", d["avr.router_retries"], "count")

	res.set("store.encode_us_p50", p50(lr.stage[trace.StageEncode]), "us")
	res.set("store.encode_us_p99", p99(lr.stage[trace.StageEncode]), "us")
	res.set("store.segwrite_us_p50", p50(lr.stage[trace.StageSegWrite]), "us")
	res.set("store.segread_us_p50", p50(lr.stage[trace.StageSegRead]), "us")
	res.set("store.decode_us_p50", p50(lr.stage[trace.StageDecode]), "us")
	res.set("store.lockwait_us_p99", p99(lr.stage[trace.StageLock]), "us")
	res.set("store.query_us_p50", p50(lr.stage[trace.StageQuery]), "us")
	res.set("store.query_touched_frac", ratio(d["avr.store_query_bytes_touched"], d["avr.store_query_bytes_total"]), "ratio")
	res.set("store.compactions", d["avr.store_compactions"], "count")
	res.set("store.compacted_bytes", d["avr.store_compacted_bytes"], "B")
	res.set("store.compact_ms_total", d["compact_ms"], "ms")
	res.set("store.lossless_block_frac", ratio(d["avr.store_blocks_lossless"], d["avr.store_blocks_avr"]+d["avr.store_blocks_lossless"]), "ratio")

	// Raw bytes over the stage time spent on them; MB/s = bytes/us.
	res.set("codec.encode_mb_s", ratio(d["avr.store_put_bytes"], us(lr.encodeNs)), "MB/s")
	res.set("codec.decode_mb_s", ratio(float64(lr.decodedBytes), us(lr.decodeNs)), "MB/s")

	res.set("net.client_hop_us_p50", p50(lr.hop), "us")
	res.set("client.get_decode_us_p50", p50(lr.decode[opGet]), "us")
	res.set("client.mget_decode_us_p50", p50(lr.decode[opMget]), "us")

	reqs := float64(lr.requests)
	res.set("runtime.alloc_bytes_per_op", ratio(d["alloc_bytes"], reqs), "B")
	res.set("runtime.gc_cycles", d["gc_cycles"], "count")
	res.set("runtime.gc_pause_ms_total", d["gc_pause_ns"]/1e6, "ms")
}

// writeSpans writes every recorded span as one JSON line, with each
// shard stage as a child line of its span.
func writeSpans(spans []span, outDir, wl string, seed int64) error {
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", wl, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i := range spans {
		sp := &spans[i]
		name := layerNames[sp.layer]
		if sp.node >= 0 {
			name = fmt.Sprintf("%s/%d", name, sp.node)
		}
		fmt.Fprintf(bw, `{"trace":"%016x","span":%q,"op":%q,"start_us":%.3f,"dur_us":%.3f`,
			sp.id, name, sp.op, us(sp.start), us(sp.dur()))
		if sp.layer == layerClient {
			fmt.Fprintf(bw, `,"intended_us":%.3f,"recv_us":%.3f`, us(sp.intended), us(sp.recv))
		}
		bw.WriteString("}\n")
		for st := 0; st < trace.NumStages; st++ {
			if d := sp.stages[st]; d > 0 && sp.layer == layerServer {
				fmt.Fprintf(bw, `{"trace":"%016x","span":"stage/%s","parent":%q,"dur_us":%.3f}`+"\n",
					sp.id, trace.Stage(st), name, us(d))
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"context"
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// The traced run records spans at three boundaries, all from this
// package: around the public calls of client.Client (op spans), around
// every request/response pair a client puts on its transport (rpc
// spans), and around every call into a provider's page store (store
// spans). Spans stay in memory and are reduced to per-layer metrics
// when the run ends.

// span is one timed call at a layer boundary.
type span struct {
	start, end time.Duration
	client     int32 // issuing client for op and rpc spans
	kind       uint8 // operation index, wire kind or store call
	bytes      int64 // frame bytes (rpc) or page bytes (store)
	failed     bool  // answered with an error
}

// Store calls, the kind of a store span.
const (
	storePut uint8 = iota
	storeGet
	storeDelete
)

// tracer collects the spans of one run, or with spans off only counts
// the rpcs the workers' clients complete. Recording happens only while
// the measured window is open.
type tracer struct {
	now   func() time.Duration
	spans bool
	on    atomic.Bool

	rpcCount, rpcBytes atomic.Int64 // rpcs completed and their frame bytes

	mu    sync.Mutex
	ops   []span
	rpcs  []span
	store []span
}

// newTracer returns a tracer recording spans, or with spans false a
// counter of rpcs; the workload sets its clock.
func newTracer(spans bool) *tracer { return &tracer{spans: spans} }

// setOn opens or closes the recording window.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) add(list *[]span, s span) {
	if t == nil || !t.spans || !t.on.Load() {
		return
	}
	t.mu.Lock()
	*list = append(*list, s)
	t.mu.Unlock()
}

// op records one public client call.
func (t *tracer) op(client int32, op uint8, start, end time.Duration, err error) {
	if t == nil {
		return
	}
	t.add(&t.ops, span{start: start, end: end, client: client, kind: op, failed: err != nil})
}

// network wraps a client's transport so every request/response pair is
// recorded as an rpc span of that client.
func (t *tracer) network(inner transport.Network, client int32) transport.Network {
	if t == nil {
		return inner
	}
	return &tracedNet{inner: inner, t: t, client: client}
}

// pageStore wraps a provider's page store so every call is recorded.
func (t *tracer) pageStore(inner pagestore.Store) pagestore.Store {
	if t == nil || !t.spans {
		return inner
	}
	return &tracedStore{Store: inner, t: t}
}

type tracedNet struct {
	inner  transport.Network
	t      *tracer
	client int32
}

func (n *tracedNet) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: n.t, client: n.client, pending: make(map[uint64]pendingReq)}, nil
}

func (n *tracedNet) Listen(addr string) (transport.Listener, error) { return n.inner.Listen(addr) }

// frameHeaderLen is the rpc frame header: uint32 body length, uint64
// request id, uint8 message kind, little-endian.
const frameHeaderLen = 4 + 8 + 1

// frameParser follows the frame boundaries of one direction of a
// connection, however the bytes are split across Read or Write calls.
type frameParser struct {
	hdr    [frameHeaderLen]byte
	have   int    // header bytes collected
	remain uint32 // body bytes still to come
	inBody bool
	id     uint64
	kind   wire.Kind
	n      uint32
}

// feed consumes p, calling done for every frame whose last byte it saw.
func (f *frameParser) feed(p []byte, done func(id uint64, kind wire.Kind, bodyLen uint32)) {
	for len(p) > 0 {
		if !f.inBody {
			k := copy(f.hdr[f.have:], p)
			f.have += k
			p = p[k:]
			if f.have < frameHeaderLen {
				return
			}
			f.n = binary.LittleEndian.Uint32(f.hdr[0:4])
			f.id = binary.LittleEndian.Uint64(f.hdr[4:12])
			f.kind = wire.Kind(f.hdr[12])
			f.have, f.remain, f.inBody = 0, f.n, true
		}
		k := uint32(len(p))
		if k > f.remain {
			k = f.remain
		}
		f.remain -= k
		p = p[k:]
		if f.remain == 0 {
			f.inBody = false
			done(f.id, f.kind, f.n)
		}
	}
}

type pendingReq struct {
	kind  wire.Kind
	start time.Duration
	bytes int64
}

// tracedConn pairs each request frame the client writes with the
// response frame carrying the same request id.
type tracedConn struct {
	transport.Conn
	t        *tracer
	client   int32
	out, in  frameParser // Write and Read each run on one goroutine at a time
	mu       sync.Mutex
	pending  map[uint64]pendingReq
	writeNow time.Duration
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.t.spans {
		c.writeNow = c.t.now()
	}
	c.out.feed(p, c.sent)
	return c.Conn.Write(p)
}

func (c *tracedConn) sent(id uint64, kind wire.Kind, n uint32) {
	c.mu.Lock()
	c.pending[id] = pendingReq{kind: kind, start: c.writeNow, bytes: int64(n) + frameHeaderLen}
	c.mu.Unlock()
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.feed(p[:n], c.received)
	}
	return n, err
}

func (c *tracedConn) received(id uint64, kind wire.Kind, n uint32) {
	c.mu.Lock()
	req, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !ok || !c.t.on.Load() {
		return
	}
	bytes := req.bytes + int64(n) + frameHeaderLen
	c.t.rpcCount.Add(1)
	c.t.rpcBytes.Add(bytes)
	if c.t.spans {
		c.t.add(&c.t.rpcs, span{
			start: req.start, end: c.t.now(), client: c.client, kind: uint8(req.kind),
			bytes: bytes, failed: kind == wire.KindErrorResp,
		})
	}
}

// tracedStore times every call into a provider's page store.
type tracedStore struct {
	pagestore.Store
	t *tracer
}

func (s *tracedStore) Put(id wire.PageID, data []byte) error {
	start := s.t.now()
	err := s.Store.Put(id, data)
	s.t.add(&s.t.store, span{start: start, end: s.t.now(), kind: storePut, bytes: int64(len(data)), failed: err != nil})
	return err
}

func (s *tracedStore) Get(id wire.PageID, off, length uint32) ([]byte, error) {
	start := s.t.now()
	b, err := s.Store.Get(id, off, length)
	s.t.add(&s.t.store, span{start: start, end: s.t.now(), kind: storeGet, bytes: int64(len(b)), failed: err != nil})
	return b, err
}

func (s *tracedStore) Delete(id wire.PageID) error {
	start := s.t.now()
	err := s.Store.Delete(id)
	s.t.add(&s.t.store, span{start: start, end: s.t.now(), kind: storeDelete, failed: err != nil})
	return err
}

// rpcKinds are the request kinds reported per kind, by layer: data
// provider, version manager, metadata DHT.
var rpcKinds = []struct {
	name string
	kind wire.Kind
}{
	{"put_page", wire.KindPutPageReq},
	{"get_pages", wire.KindGetPagesReq},
	{"delete_pages", wire.KindDeletePagesReq},
	{"allocate", wire.KindAllocateReq},
	{"assign", wire.KindAssignReq},
	{"complete", wire.KindCompleteReq},
	{"size", wire.KindSizeReq},
	{"recent", wire.KindRecentReq},
	{"sync", wire.KindSyncReq},
	{"expire", wire.KindExpireReq},
	{"gc_info", wire.KindGCInfoReq},
	{"dht_multi_put", wire.KindDHTMultiPutReq},
	{"dht_multi_get", wire.KindDHTMultiGetReq},
	{"dht_delete", wire.KindDHTDeleteReq},
}

// Client operations, the kind of an op span.
const (
	opAppend uint8 = iota
	opRead
	opWrite
	opGC
	numOps
)

var opNames = [numOps]string{"append", "read", "write", "gc"}

// rpcFigures returns the rpcs the workers' clients completed per
// operation, and their frame bytes per payload byte.
func (t *tracer) rpcFigures(completed int, payload int64) (perOp, perByte float64) {
	return float64(t.rpcCount.Load()) / float64(completed), float64(t.rpcBytes.Load()) / float64(payload)
}

// spanMetrics reduces the spans to the span-derived per-layer metrics.
// window is the measured duration.
func (t *tracer) spanMetrics(window time.Duration) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]float64)
	ops := 0
	for _, o := range t.ops {
		if !o.failed {
			ops++
		}
	}
	perOp := func(x float64) float64 {
		if ops == 0 {
			return 0
		}
		return x / float64(ops)
	}

	var byOp [numOps][]time.Duration
	for _, o := range t.ops {
		if !o.failed {
			byOp[o.kind] = append(byOp[o.kind], o.end-o.start)
		}
	}
	for i, name := range opNames {
		m["client."+name+".p50_ms"] = ms(quantile(byOp[i], 0.5))
	}

	var self time.Duration
	byClient := make(map[int32][]span)
	for _, r := range t.rpcs {
		byClient[r.client] = append(byClient[r.client], r)
	}
	opsByClient := make(map[int32][]span)
	for _, o := range t.ops {
		opsByClient[o.client] = append(opsByClient[o.client], o)
	}
	for c, os := range opsByClient {
		self += selfTime(os, byClient[c])
	}
	m["client.self_ms_per_op"] = perOp(ms(self))

	kindLat := make(map[wire.Kind][]time.Duration)
	kindBytes := make(map[wire.Kind]int64)
	for _, r := range t.rpcs {
		k := wire.Kind(r.kind)
		kindLat[k] = append(kindLat[k], r.end-r.start)
		kindBytes[k] += r.bytes
	}
	for _, rk := range rpcKinds {
		lat := kindLat[rk.kind]
		p := "rpc." + rk.name + "."
		m[p+"calls_per_op"] = perOp(float64(len(lat)))
		m[p+"p50_ms"] = ms(quantile(lat, 0.5))
		m[p+"bytes_per_call"] = 0
		if len(lat) > 0 {
			m[p+"bytes_per_call"] = float64(kindBytes[rk.kind]) / float64(len(lat))
		}
	}

	var sum [3]time.Duration
	var n [3]int
	for _, s := range t.store {
		sum[s.kind] += s.end - s.start
		n[s.kind]++
	}
	avgUS := func(k uint8) float64 {
		if n[k] == 0 {
			return 0
		}
		return float64(sum[k]) / float64(n[k]) / float64(time.Microsecond)
	}
	m["pagestore.put_us_per_page"] = avgUS(storePut)
	m["pagestore.get_us_per_call"] = avgUS(storeGet)
	m["pagestore.delete_us_per_page"] = avgUS(storeDelete)
	if window > 0 {
		m["pagestore.busy_frac"] = float64(union(t.store)) / float64(window)
	}
	return m
}

// selfTime sums, over ops, each op's duration minus the part of it its
// rpc spans cover. Both lists belong to one client, whose ops never
// overlap (one closed-loop worker per client).
func selfTime(ops, rpcs []span) time.Duration {
	sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	sort.Slice(rpcs, func(i, j int) bool { return rpcs[i].start < rpcs[j].start })
	var total time.Duration
	j := 0
	for _, o := range ops {
		for j < len(rpcs) && rpcs[j].start < o.start {
			j++
		}
		covered, reach := time.Duration(0), o.start
		for k := j; k < len(rpcs) && rpcs[k].start < o.end; k++ {
			s, e := rpcs[k].start, rpcs[k].end
			if e > o.end {
				e = o.end
			}
			if s < reach {
				s = reach
			}
			if e > s {
				covered += e - s
				reach = e
			}
		}
		total += o.end - o.start - covered
	}
	return total
}

// union returns the total time covered by at least one span.
func union(spans []span) time.Duration {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total, reach time.Duration
	for _, x := range s {
		start := x.start
		if start < reach {
			start = reach
		}
		if x.end > start {
			total += x.end - start
			reach = x.end
		}
	}
	return total
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/pagestore"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
)

// workers is the number of closed-loop workers of the real-clock
// workloads, each with its own client: the container's core count.
const workers = 2

// snapshotEvery is blobseerd's cadence for index snapshots and version
// checkpoints: every 4096 records or events.
const snapshotEvery = 4096

// stack is one running in-process cluster with its workers' clients.
type stack struct {
	net     *transport.Inproc
	sched   *vclock.Real
	cl      *cluster.Cluster
	disks   []*pagestore.Disk // durable page stores, closed after the cluster
	clients []*client.Client  // one per worker, traced when the run is
	loader  *client.Client    // untraced client for preloads and checks
}

// startStack stands a cluster up on the in-process transport. Provider
// page stores are the given disks, or in-memory stores when disks is
// nil; every store and worker client is wrapped by the run's tracer, if
// any.
func startStack(cfg runCfg, ccfg cluster.Config, disks []*pagestore.Disk) (*stack, error) {
	s := &stack{net: transport.NewInproc(), sched: vclock.NewReal(), disks: disks}
	if cfg.tr != nil {
		cfg.tr.now = s.sched.Now
	}
	ccfg.HeartbeatEvery = time.Hour // keep heartbeats out of the measured window
	ccfg.NewStore = func(i int) pagestore.Store {
		if disks != nil {
			return cfg.tr.pageStore(disks[i])
		}
		return cfg.tr.pageStore(pagestore.NewMem())
	}
	cl, err := cluster.StartInproc(s.net, s.sched, ccfg)
	if err != nil {
		s.net.Close()
		closeDisks(disks)
		return nil, err
	}
	s.cl = cl
	for i := 0; i < workers; i++ {
		id := int32(i)
		c, err := cl.NewClientCfg("", func(cc *client.Config) { cc.Net = cfg.tr.network(cc.Net, id) })
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	if s.loader, err = cl.NewClient(""); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close tears the cluster down; the cluster closes its clients.
func (s *stack) close() error {
	s.cl.Close()
	s.net.Close()
	return closeDisks(s.disks)
}

func closeDisks(disks []*pagestore.Disk) error {
	var first error
	for _, d := range disks {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// storeBytes sums the page bytes held by the providers and the
// metadata bytes held by the DHT nodes.
func storeBytes(cl *cluster.Cluster) uint64 {
	var total uint64
	for _, p := range cl.Providers {
		_, b := p.Store().Stats()
		total += b
	}
	_, mb := cl.MetaStats()
	return total + mb
}

// counters is a snapshot of the per-layer counters the system exposes.
type counters struct {
	pc                     client.PageCacheStats
	metaHits, metaMisses   uint64
	metaKeys               uint64
	walAppends             uint64
	diskAppends, diskSyncs uint64
	metaLogBytes           int64
}

func snapCounters(cl *cluster.Cluster, clients []*client.Client, disks []*pagestore.Disk) counters {
	var c counters
	for _, cli := range clients {
		pc := cli.PageCacheStats()
		c.pc.Hits += pc.Hits
		c.pc.Misses += pc.Misses
		c.pc.FetchRPCs += pc.FetchRPCs
		c.pc.PagesFetched += pc.PagesFetched
		h, m := cli.MetaCacheStats()
		c.metaHits += h
		c.metaMisses += m
	}
	c.metaKeys, _ = cl.MetaStats()
	c.walAppends, _ = cl.VM.WALStats()
	for _, d := range disks {
		a, s := d.WriteStats()
		c.diskAppends += a
		c.diskSyncs += s
	}
	c.metaLogBytes = cl.MetaLogBytes()
	return c
}

// gcTotals sums the GC statistics of a run's collections.
type gcTotals struct {
	runs, listed, walked, deletedPages, deletedNodes int
}

func (g *gcTotals) add(s client.GCStats) {
	g.runs++
	g.listed += s.ExpiredVersions
	g.walked += s.WalkedNodes
	g.deletedPages += s.DeletedPages
	g.deletedNodes += s.DeletedNodes
}

// layerCounters turns two counter snapshots around the measured window
// into per-layer metrics. updates counts the writes and appends in the
// window.
func layerCounters(a, b counters, updates int, payload int64, gc gcTotals) map[string]float64 {
	m := map[string]float64{}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	hits, misses := float64(b.pc.Hits-a.pc.Hits), float64(b.pc.Misses-a.pc.Misses)
	m["client.page_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["client.pages_per_fetch_rpc"] = ratio(float64(b.pc.PagesFetched-a.pc.PagesFetched), float64(b.pc.FetchRPCs-a.pc.FetchRPCs))
	mh, mm := float64(b.metaHits-a.metaHits), float64(b.metaMisses-a.metaMisses)
	m["meta.cache_hit_ratio"] = ratio(mh, mh+mm)
	m["client.gc_listed_versions_per_gc"] = ratio(float64(gc.listed), float64(gc.runs))
	m["client.gc_walked_nodes_per_deleted_page"] = ratio(float64(gc.walked), float64(gc.deletedPages))
	// Net growth of stored tree nodes, plus the nodes GC deleted in the
	// window, is the number of nodes the updates created.
	created := float64(b.metaKeys) - float64(a.metaKeys) + float64(gc.deletedNodes)
	m["core.nodes_per_update"] = ratio(created, float64(updates))
	m["seglog.page_fsyncs_per_record"] = ratio(float64(b.diskSyncs-a.diskSyncs), float64(b.diskAppends-a.diskAppends))
	m["seglog.wal_records_per_update"] = ratio(float64(b.walAppends-a.walAppends), float64(updates))
	m["dht.log_bytes_per_payload_byte"] = ratio(float64(b.metaLogBytes-a.metaLogBytes), float64(payload))
	return m
}

// timed runs one client call, records it and returns its error.
func timed(cfg runCfg, rec *recorder, now func() time.Duration, client int32, op uint8, payload int, fn func() error) error {
	start := now()
	err := fn()
	end := now()
	rec.done(opNames[op], end-start, payload, err)
	cfg.tr.op(client, op, start, end, err)
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// runWorkers runs fn on n workers and returns the measured wall time.
// Each worker loops until its workload's end condition: the window
// closing, or a quota of operations running out. A worker stops early
// on an operation failure (already recorded) and returns an error only
// for a failed correctness check. The window is not a context
// deadline: operations in flight when it closes finish normally.
func runWorkers(n int, fn func(w int) error) (time.Duration, error) {
	start := time.Now()
	errs := make(chan error, n)
	for w := 0; w < n; w++ {
		go func(w int) { errs <- fn(w) }(w)
	}
	var first error
	for w := 0; w < n; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return time.Since(start), first
}

// setupRepeated runs set-up cfg.setups times, keeping the last run,
// discarding the others and recording every set-up's wall time. Each
// set-up starts from a collected heap, so the garbage the one before
// left does not land in its time.
func setupRepeated[R any](cfg runCfg, o *outcome, setup func(i int) (R, error), discard func(R) error) (R, error) {
	var run R
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		r, err := setup(i)
		if err != nil {
			return run, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
		if i == cfg.setups-1 {
			return r, nil
		}
		if err := discard(r); err != nil {
			return run, err
		}
	}
	return run, nil
}

// quota is a shared budget of operations. The workloads whose state
// grows with the work done (append_durable, update_gc) run a fixed
// amount of work, sized to last about the requested seconds on an
// unloaded two-core host, so that memory, garbage-collection history
// and per-operation costs do not follow the host's speed.
type quota struct{ left atomic.Int64 }

func newQuota(perSecond float64, cfg runCfg) *quota {
	q := &quota{}
	q.left.Store(int64(max(1, perSecond*cfg.seconds)))
	return q
}

// take claims one operation; false once the quota is spent.
func (q *quota) take() bool { return q.left.Add(-1) >= 0 }

// errMismatch marks a correctness failure: the system returned data or
// a version the model says it must not.
type errMismatch struct{ msg string }

func (e *errMismatch) Error() string { return e.msg }

func mismatch(format string, args ...any) error {
	return &errMismatch{msg: fmt.Sprintf(format, args...)}
}

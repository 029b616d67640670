package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/pagestore"
	"blobseer/internal/simnet"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
	"blobseer/internal/workload"
)

// The simulated testbed of paper_append_sim: the paper's Grid'5000
// figures (117.5 MB/s links, 0.1 ms latency) at the experiment
// harness's default 1/64 data scale, which divides page size and link
// bandwidth alike. Reported bandwidths are rescaled to paper units.
const (
	simScale     = 64
	simLinkMBps  = 117.5
	simLatency   = 100 * time.Microsecond
	simProviders = 16
	simWriters   = 16
	simPageSize  = 64 << 10 / simScale // the paper's 64 KiB page
)

// simFigures is what one simulation measured in virtual time.
type simFigures struct {
	virtual  virtualFigures
	lat      []time.Duration // virtual latency of every append
	spaceAmp float64         // stored page and metadata bytes over blob size
	layers   map[string]float64
	wall     time.Duration // measured wall time, set-up excluded
	setup    time.Duration
	proc     procDelta // process counters over the measured appends
}

// simPlan is a simulation's input. As in ablation A1 (writers), every
// append has the same size, 1 MiB in paper units; the seed fills the
// payload.
type simPlan struct {
	seed    uint64
	appends int // per writer
	preload int // appends before the writers start
}

const simAppendPages = 16

func newSimPlan(seed uint64, small bool) simPlan {
	if small {
		return simPlan{seed: seed, appends: 4, preload: 8}
	}
	return simPlan{seed: seed, appends: 80, preload: 256}
}

// simulate runs one simulation: set-up, the concurrent appends, and the
// final size check. Spans go to tr when it is set.
func simulate(plan simPlan, tr *tracer) (simFigures, error) {
	var f simFigures
	wall0 := time.Now()
	clock := vclock.NewVirtual(0)
	if tr != nil {
		tr.now = clock.Now
	}
	net := simnet.New(clock, simnet.Config{LinkBps: simLinkMBps * 1e6 / simScale, Latency: simLatency})
	var bodyErr error
	simErr := clock.Run(func() {
		cl, err := cluster.StartSim(net, clock, cluster.Config{
			DataProviders:  simProviders,
			MetaProviders:  simProviders,
			HeartbeatEvery: time.Hour,
			NewStore:       func(int) pagestore.Store { return tr.pageStore(pagestore.NewMem()) },
			// Cold clients, as in the paper's runs and the experiment
			// harness: no metadata or page cache.
			ClientCacheNodes: -1,
			ClientRead:       client.ReadTuning{PageCacheBytes: -1, HedgeDelay: -1, CoalescePages: -1},
		})
		if err != nil {
			bodyErr = err
			return
		}
		defer cl.Close()
		bodyErr = simBody(cl, clock, plan, tr, wall0, &f)
	})
	if simErr != nil {
		return f, fmt.Errorf("simulation: %w", simErr)
	}
	f.wall = time.Since(wall0) - f.setup
	return f, bodyErr
}

func simBody(cl *cluster.Cluster, clock *vclock.Virtual, plan simPlan, tr *tracer, wall0 time.Time, f *simFigures) error {
	ctx := context.Background()
	clients := make([]*client.Client, simWriters)
	for i := range clients {
		id := int32(i)
		c, err := cl.NewClientCfg(fmt.Sprintf("writer%d", i), func(cc *client.Config) { cc.Net = tr.network(cc.Net, id) })
		if err != nil {
			return err
		}
		clients[i] = c
	}
	blob, err := clients[0].Create(ctx, simPageSize)
	if err != nil {
		return err
	}
	// The payload's bytes do not affect virtual time; one shared,
	// read-only buffer serves every append.
	data := workload.Chunk(plan.seed, simAppendPages*simPageSize)
	for i := 0; i < plan.preload; i++ {
		if _, err := clients[0].Append(ctx, blob, data); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	f.setup = time.Since(wall0)

	lat := make([][]time.Duration, simWriters)
	before := snapCounters(cl, clients, nil)
	p0 := sampleProc()
	start := clock.Now()
	tr.setOn(true)
	err = vclock.Parallel(clock, simWriters, func(w int) error {
		var v wire.Version
		for k := 0; k < plan.appends; k++ {
			t0 := clock.Now()
			var err error
			if v, err = clients[w].Append(ctx, blob, data); err != nil {
				return err
			}
			t1 := clock.Now()
			tr.op(int32(w), opAppend, t0, t1, nil)
			lat[w] = append(lat[w], t1-t0)
		}
		return clients[w].Sync(ctx, blob, v)
	})
	tr.setOn(false)
	f.proc = p0.to(sampleProc())
	if err != nil {
		return err
	}
	elapsed := (clock.Now() - start).Seconds()

	for w := range lat {
		f.lat = append(f.lat, lat[w]...)
	}
	payload := int64(len(f.lat)) * simAppendPages * simPageSize
	f.virtual = virtualFigures{
		mbps:  float64(payload) * simScale / elapsed / 1e6,
		opsps: float64(len(f.lat)) / elapsed,
	}
	f.layers = layerCounters(before, snapCounters(cl, clients, nil), len(f.lat), payload, gcTotals{})

	want := uint64(plan.preload+len(f.lat)) * simAppendPages * simPageSize
	_, size, err := clients[0].Recent(ctx, blob)
	if err != nil {
		return err
	}
	if size != want {
		return mismatch("final blob size %d, want %d", size, want)
	}
	f.spaceAmp = float64(storeBytes(cl)) / float64(size)
	return nil
}

// runPaperAppendSim: the paper's deployment on the simulated network
// under virtual time, with 16 concurrent appenders on one blob. The
// same seed repeats the same simulation until the window closes, and
// the throughput figures are the median over repetitions. Repetitions
// agree closely but not exactly: when goroutines wake at the same
// virtual instant, the Go scheduler picks their order, and over 1280
// appends that moves virtual throughput by up to ~2% and the rpc count
// by ~0.3%. A traced run traces one repetition.
func runPaperAppendSim(cfg runCfg) (*outcome, error) {
	plan := newSimPlan(cfg.seed, cfg.small)
	o := &outcome{rec: newRecorder(), primary: "append"}
	start := time.Now()
	var mbps, opsps []float64
	for {
		runtime.GC() // as in setupRepeated
		f, err := simulate(plan, cfg.tr)
		var m *errMismatch
		if errors.As(err, &m) {
			o.err = err
			return o, nil
		}
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, f.setup)
		o.window += f.wall
		o.proc.add(f.proc)
		for _, d := range f.lat {
			o.rec.done("append", d, simAppendPages*simPageSize, nil)
		}
		mbps = append(mbps, f.virtual.mbps)
		opsps = append(opsps, f.virtual.opsps)
		if o.layers == nil {
			o.spaceAmp, o.layers = f.spaceAmp, f.layers
		}
		if (cfg.tr != nil && cfg.tr.spans) || len(o.setups) >= cfg.setups && time.Since(start) >= cfg.window() {
			break
		}
	}
	o.virtual = &virtualFigures{mbps: median(mbps), opsps: median(opsps)}
	return o, nil
}

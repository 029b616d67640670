package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"blobseer/internal/cluster"
	"blobseer/internal/dht"
	"blobseer/internal/pagestore"
	"blobseer/internal/wire"
)

// appendsPerSecond sizes append_durable's quota: about the rate of an
// unloaded two-core host with a local SSD.
const appendsPerSecond = 360

// appendPages is the append size of append_durable and the write size
// of update_gc, in pages: 256 KiB.
const appendPages = 4

// durableConfig is append_durable's cluster: 4 data and 4 metadata
// providers on local disk. Page and metadata logs fsync through group
// commit; snapshots and checkpoints follow blobseerd's cadence. The
// version WAL is logged but not fsynced: cluster.Config has no knob for
// it, so that is the stated flush policy of the embedded durable
// cluster.
func durableConfig(dir string) (cluster.Config, []*pagestore.Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cluster.Config{}, nil, err
	}
	var disks []*pagestore.Disk
	for i := 0; i < 4; i++ {
		d, err := pagestore.OpenDisk(filepath.Join(dir, fmt.Sprintf("provider-%d.log", i)), pagestore.DiskOptions{
			Sync: true, GroupCommit: true, SnapshotEvery: snapshotEvery, CompactRatio: 0.5,
		})
		if err != nil {
			closeDisks(disks)
			return cluster.Config{}, nil, err
		}
		disks = append(disks, d)
	}
	return cluster.Config{
		DataProviders:          4,
		MetaProviders:          4,
		MetaLogDir:             dir,
		MetaLog:                dht.LogOptions{Sync: true, SnapshotEvery: snapshotEvery, CompactRatio: 0.5},
		VersionWALPath:         filepath.Join(dir, "vm.wal"),
		VersionCheckpointEvery: snapshotEvery,
	}, disks, nil
}

// durableRun is one set-up durable cluster with its blob.
type durableRun struct {
	dir   string
	st    *stack
	blob  wire.BlobID
	model *versionModel // page images each appended version carries
}

// setupDurable starts a durable cluster in a fresh directory and
// preloads the blob with appends from every worker.
func setupDurable(cfg runCfg, dir string, pl *pool, preload int) (*durableRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ccfg, disks, err := durableConfig(dir)
	if err != nil {
		return nil, err
	}
	st, err := startStack(cfg, ccfg, disks)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	run := &durableRun{dir: dir, st: st, model: newVersionModel()}
	if run.blob, err = st.loader.Create(ctx, pageSize); err != nil {
		st.close()
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := newRand(cfg.seed, 100+uint64(w))
			buf := make([]byte, appendPages*pageSize)
			for k := 0; k < preload/workers; k++ {
				ids := pl.draw(r, appendPages)
				pl.fill(buf, ids)
				v, err := st.clients[w].Append(ctx, run.blob, buf)
				if err != nil {
					errs[w] = fmt.Errorf("preload append: %w", err)
					return
				}
				run.model.set(v, ids)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			run.discard()
			return nil, err
		}
	}
	return run, nil
}

// discard closes the cluster and deletes its logs.
func (r *durableRun) discard() error {
	err := r.st.close()
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	return err
}

// runAppendDurable: two closed-loop appenders add 256 KiB to one shared
// blob on a durable cluster. Afterwards the cluster is closed and
// reopened from its directory, and the newest version's size and a
// seeded sample of ranges are checked against the model.
func runAppendDurable(cfg runCfg) (*outcome, error) {
	pl := newPool(cfg.seed, pageSize)
	preload := 128 // appends: 32 MiB
	if cfg.small {
		preload = 16
	}
	o := &outcome{rec: newRecorder(), primary: "append"}
	defer os.RemoveAll(cfg.dir)
	run, err := setupRepeated(cfg, o, func(i int) (*durableRun, error) {
		return setupDurable(cfg, filepath.Join(cfg.dir, fmt.Sprintf("durable-%d", i)), pl, preload)
	}, (*durableRun).discard)
	if err != nil {
		return nil, err
	}
	st := run.st
	ctx := context.Background()

	before := snapCounters(st.cl, st.clients, st.disks)
	p0 := sampleProc()
	cfg.tr.setOn(true)
	q := newQuota(appendsPerSecond, cfg)
	o.window, o.err = runWorkers(workers, func(w int) error {
		r := newRand(cfg.seed, 200+uint64(w))
		buf := make([]byte, appendPages*pageSize)
		for q.take() {
			ids := pl.draw(r, appendPages)
			pl.fill(buf, ids)
			var v wire.Version
			err := timed(cfg, o.rec, st.sched.Now, int32(w), opAppend, len(buf), func() (err error) {
				v, err = st.clients[w].Append(ctx, run.blob, buf)
				return err
			})
			if err != nil {
				return nil
			}
			run.model.set(v, ids)
		}
		return nil
	})
	cfg.tr.setOn(false)
	o.proc = p0.to(sampleProc())
	after := snapCounters(st.cl, st.clients, st.disks)
	appends := len(o.rec.op("append").lat)
	_, _, _, payload := o.rec.totals()
	o.layers = layerCounters(before, after, appends, payload, gcTotals{})
	if o.err != nil {
		run.discard()
		return o, nil
	}

	var newest wire.Version
	for v := range run.model.maps {
		newest = max(newest, v)
	}
	if err := st.loader.Sync(ctx, run.blob, newest); err != nil {
		run.discard()
		return nil, fmt.Errorf("sync newest: %w", err)
	}
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	logBytes, err := dirBytes(run.dir)
	if err != nil {
		return nil, err
	}
	o.spaceAmp = float64(logBytes) / float64(uint64(newest)*appendPages*pageSize)
	o.err = reopenAndCheck(cfg, run, pl, newest)
	if err := os.RemoveAll(run.dir); err != nil {
		return nil, err
	}
	return o, nil
}

// reopenAndCheck restarts the cluster from its directory and checks
// the newest version's size and a seeded sample of appended ranges,
// read both from the newest version and from the version that appended
// them.
func reopenAndCheck(cfg runCfg, run *durableRun, pl *pool, newest wire.Version) error {
	ccfg, disks, err := durableConfig(run.dir)
	if err != nil {
		return err
	}
	st, err := startStack(runCfg{}, ccfg, disks)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.close()
	ctx := context.Background()
	const chunk = appendPages * pageSize
	v, size, err := st.loader.Recent(ctx, run.blob)
	if err != nil {
		return fmt.Errorf("recent after reopen: %w", err)
	}
	if v != newest || size != uint64(newest)*chunk {
		return mismatch("after reopen: newest version %d of %d bytes, want %d of %d", v, size, newest, uint64(newest)*chunk)
	}
	r := newRand(cfg.seed, 300)
	buf := make([]byte, chunk)
	for i := 0; i < 64; i++ {
		av := wire.Version(1 + r.Intn(int(newest)))
		off := uint64(av-1) * chunk
		for _, at := range []wire.Version{newest, av} {
			if err := st.loader.Read(ctx, run.blob, at, buf, off); err != nil {
				return fmt.Errorf("read after reopen: %w", err)
			}
			if err := pl.check(buf, 0, run.model.get(av)); err != nil {
				return mismatch("after reopen, version %d at offset %d (appended by version %d): %v", at, off, av, err)
			}
		}
	}
	return nil
}

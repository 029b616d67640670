package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/cluster"
	"blobseer/internal/wire"
)

// readPages is the read size of read_versions and update_gc: 1 MiB.
const readPages = 16

// memRun is one set-up in-memory cluster with its preloaded blob.
type memRun struct {
	st    *stack
	blob  wire.BlobID
	pages int           // blob size in pages, fixed after the preload
	model *versionModel // page images of every readable version
	last  wire.Version  // newest version written by the set-up
}

// setupMem starts an in-memory cluster and preloads a blob of pages
// pages as one append, followed by overwrites 1 MiB overwrites. These
// visit the blob's 1 MiB slots in seeded permutations, so every slot is
// overwritten equally often and how much the versions share does not
// depend on the seed.
func setupMem(cfg runCfg, pl *pool, pages, overwrites int) (*memRun, error) {
	st, err := startStack(cfg, cluster.Config{}, nil)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	run := &memRun{st: st, pages: pages, model: newVersionModel()}
	fail := func(err error) (*memRun, error) {
		st.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if run.blob, err = st.loader.Create(ctx, pageSize); err != nil {
		return fail(err)
	}
	r := newRand(cfg.seed, 1)
	cur := pl.draw(r, pages)
	buf := make([]byte, pages*pageSize)
	pl.fill(buf, cur)
	v, err := st.loader.Append(ctx, run.blob, buf)
	if err != nil {
		return fail(err)
	}
	run.model.set(v, cur)
	var slots []int
	for i := 0; i < overwrites; i++ {
		if len(slots) == 0 {
			slots = r.Perm(pages / readPages)
		}
		at := slots[0] * readPages
		slots = slots[1:]
		ids := pl.draw(r, readPages)
		pl.fill(buf, ids)
		if v, err = st.loader.Write(ctx, run.blob, buf[:readPages*pageSize], uint64(at)*pageSize); err != nil {
			return fail(err)
		}
		cur = overwrite(cur, at, ids)
		run.model.set(v, cur)
	}
	if err := st.loader.Sync(ctx, run.blob, v); err != nil {
		return fail(err)
	}
	run.last = v
	return run, nil
}

// close tears the run's cluster down.
func (m *memRun) close() error { return m.st.close() }

// readChecked reads readPages pages of version v at page index at and
// compares them with the model.
func (m *memRun) readChecked(ctx context.Context, c *client.Client, pl *pool, buf []byte, v wire.Version, at int) (readErr, checkErr error) {
	if err := c.Read(ctx, m.blob, v, buf, uint64(at)*pageSize); err != nil {
		return err, nil
	}
	want := m.model.get(v)
	if want == nil {
		return nil, mismatch("read version %d, which the model never saw written", v)
	}
	if err := pl.check(buf, at, want); err != nil {
		return nil, mismatch("version %d at page %d: %v", v, at, err)
	}
	return nil, nil
}

// versionReader is one read_versions worker: its client, generators
// and buffer.
type versionReader struct {
	w    int
	c    *client.Client
	r    *rand.Rand
	zipf *rand.Zipf
	buf  []byte
}

func newVersionReader(cfg runCfg, run *memRun, w int, stream uint64) *versionReader {
	r := newRand(cfg.seed, stream+uint64(w))
	return &versionReader{
		w: w, c: run.st.clients[w], r: r,
		zipf: rand.NewZipf(r, 1.1, 1, uint64(run.last)-1),
		buf:  make([]byte, readPages*pageSize),
	}
}

// read does one checked read; rec nil means untimed (warm-up).
func (vr *versionReader) read(cfg runCfg, run *memRun, pl *pool, rec *recorder) (opErr, checkErr error) {
	v := run.last - vr.zipf.Uint64()
	at := vr.r.Intn(run.pages - readPages + 1)
	ctx := context.Background()
	if rec == nil {
		return run.readChecked(ctx, vr.c, pl, vr.buf, v, at)
	}
	opErr = timed(cfg, rec, run.st.sched.Now, int32(vr.w), opRead, len(vr.buf), func() error {
		opErr, checkErr = run.readChecked(ctx, vr.c, pl, vr.buf, v, at)
		return opErr
	})
	return opErr, checkErr
}

// runReadVersions: two closed-loop readers each read 1 MiB at a uniform
// page-aligned offset of a version drawn Zipf(1.1) toward the newest,
// over a 32 MiB blob plus 64 seeded 1 MiB overwrites: ~96 MiB of
// distinct pages, three times a client's 32 MiB page cache.
func runReadVersions(cfg runCfg) (*outcome, error) {
	pl := newPool(cfg.seed, pageSize)
	pages, overwrites, warm := 512, 64, 64
	if cfg.small {
		pages, overwrites, warm = 64, 8, 4
	}
	o := &outcome{rec: newRecorder(), primary: "read"}
	run, err := setupRepeated(cfg, o, func(int) (*memRun, error) {
		run, err := setupMem(cfg, pl, pages, overwrites)
		if err != nil {
			return nil, err
		}
		// Warm-up, part of set-up: fill the readers' caches.
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				vr := newVersionReader(cfg, run, w, 50)
				for i := 0; i < warm && errs[w] == nil; i++ {
					opErr, checkErr := vr.read(cfg, run, pl, nil)
					errs[w] = errors.Join(opErr, checkErr)
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			run.st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return run, nil
	}, (*memRun).close)
	if err != nil {
		return nil, err
	}
	defer run.close()

	before := snapCounters(run.st.cl, run.st.clients, nil)
	p0 := sampleProc()
	cfg.tr.setOn(true)
	until := time.Now().Add(cfg.window())
	o.window, o.err = runWorkers(workers, func(w int) error {
		vr := newVersionReader(cfg, run, w, 60)
		for time.Now().Before(until) {
			opErr, checkErr := vr.read(cfg, run, pl, o.rec)
			if opErr != nil || checkErr != nil {
				return checkErr
			}
		}
		return nil
	})
	cfg.tr.setOn(false)
	o.proc = p0.to(sampleProc())
	after := snapCounters(run.st.cl, run.st.clients, nil)
	_, _, _, payload := o.rec.totals()
	o.layers = layerCounters(before, after, 0, payload, gcTotals{})
	o.spaceAmp = float64(storeBytes(run.st.cl)) / float64(run.pages*pageSize)
	return o, nil
}

// Retention of update_gc: every gcEvery writes the writer syncs, expires
// all but the newest keepVersions versions and collects garbage.
const (
	gcEvery      = 64
	keepVersions = 16
)

// writesPerSecond sizes update_gc's write quota: about the writer's rate
// on an unloaded two-core host.
const writesPerSecond = 400

// runUpdateGC: on an in-memory 32 MiB blob, one writer overwrites
// 256 KiB at seeded page-aligned offsets and runs a retention cycle
// every 64 writes, while one reader follows it: for each write, it runs
// RECENT and reads 1 MiB of the newest snapshot. GC_INFO lists every
// version expired since the blob was created, so a cycle's cost grows
// with the writes before it; the write quota, and the one read per
// write, keep that history and the operation mix the same in every run.
//
// The reader pins the newest version the writer had finished when the
// read began, and the writer never expires a version within
// keepVersions of that pin: a read of a version the workload itself
// expired would fail by design, not by fault.
func runUpdateGC(cfg runCfg) (*outcome, error) {
	pl := newPool(cfg.seed, pageSize)
	pages, warm := 512, gcEvery
	if cfg.small {
		pages, warm = 64, 8
	}
	o := &outcome{rec: newRecorder(), primary: "write"}
	var gcs gcTotals
	var u *updater
	run, err := setupRepeated(cfg, o, func(int) (*memRun, error) {
		run, err := setupMem(cfg, pl, pages, 0)
		if err != nil {
			return nil, err
		}
		// Warm-up, part of set-up: one full write and retention cycle.
		u = newUpdater(cfg, run, pl)
		for i := 0; i < warm; i++ {
			if err := u.write(nil); err != nil {
				run.st.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		if err := u.retain(nil, &gcTotals{}); err != nil {
			run.st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return run, nil
	}, (*memRun).close)
	if err != nil {
		return nil, err
	}
	defer run.close()

	before := snapCounters(run.st.cl, run.st.clients, nil)
	p0 := sampleProc()
	cfg.tr.setOn(true)
	q := newQuota(writesPerSecond, cfg)
	// One read follows each write; the buffer holds every write's token,
	// so the writer never waits for the reader.
	written := make(chan struct{}, q.left.Load())
	o.window, o.err = runWorkers(workers, func(w int) error {
		if w == 0 {
			defer close(written)
			for n := 1; q.take(); n++ {
				if err := u.write(o.rec); err != nil {
					return checkOnly(err)
				}
				written <- struct{}{}
				if n%gcEvery == 0 {
					if err := u.retain(o.rec, &gcs); err != nil {
						return checkOnly(err)
					}
				}
			}
			return nil
		}
		r := newRand(cfg.seed, 70)
		buf := make([]byte, readPages*pageSize)
		for range written {
			if err := u.readNewest(o.rec, r, buf); err != nil {
				return checkOnly(err)
			}
		}
		return nil
	})
	cfg.tr.setOn(false)
	o.proc = p0.to(sampleProc())
	after := snapCounters(run.st.cl, run.st.clients, nil)
	_, _, _, payload := o.rec.totals()
	o.layers = layerCounters(before, after, len(o.rec.op("write").lat), payload, gcs)
	if o.err == nil {
		// Space is measured at the same point of the cycle every run:
		// right after a retention pass.
		if err := u.retain(nil, &gcTotals{}); err != nil {
			return nil, fmt.Errorf("final retention: %w", err)
		}
		o.spaceAmp = float64(storeBytes(run.st.cl)) / float64(run.pages*pageSize)
	}
	return o, nil
}

// checkOnly keeps correctness failures and drops operation failures,
// which the recorder already holds.
func checkOnly(err error) error {
	var m *errMismatch
	if errors.As(err, &m) {
		return err
	}
	return nil
}

// updater is update_gc's shared state: the writer's model of the blob
// and the reader's pin.
type updater struct {
	cfg  runCfg
	run  *memRun
	pl   *pool
	r    *rand.Rand
	wbuf []byte
	cur  []uint16      // page images of the newest version written
	done atomic.Uint64 // newest version whose write returned
	pin  atomic.Uint64 // the reader's pin; 0 = no read in flight
}

func newUpdater(cfg runCfg, run *memRun, pl *pool) *updater {
	u := &updater{cfg: cfg, run: run, pl: pl, r: newRand(cfg.seed, 2),
		wbuf: make([]byte, appendPages*pageSize), cur: run.model.get(run.last)}
	u.done.Store(run.last)
	return u
}

// write overwrites 256 KiB at a seeded page-aligned offset. The model
// learns the next version before the write is issued, so a reader that
// sees it published always finds it. rec nil means untimed.
func (u *updater) write(rec *recorder) error {
	ids := u.pl.draw(u.r, appendPages)
	at := u.r.Intn(u.run.pages - appendPages + 1)
	next := overwrite(u.cur, at, ids)
	want := u.done.Load() + 1
	u.run.model.set(want, next)
	u.pl.fill(u.wbuf, ids)
	c := u.run.st.clients[0]
	var v wire.Version
	err := u.op(rec, opWrite, len(u.wbuf), func() (err error) {
		v, err = c.Write(context.Background(), u.run.blob, u.wbuf, uint64(at)*pageSize)
		return err
	})
	if err != nil {
		return err
	}
	if v != want {
		return mismatch("write got version %d, want %d (the only writer)", v, want)
	}
	u.cur = next
	u.done.Store(v)
	return nil
}

// retain syncs the newest version, expires all but the newest
// keepVersions versions (and any version the reader may be reading) and
// collects garbage, as one timed cycle.
func (u *updater) retain(rec *recorder, gcs *gcTotals) error {
	c := u.run.st.clients[0]
	ctx := context.Background()
	newest := u.done.Load()
	return u.op(rec, opGC, 0, func() error {
		if err := c.Sync(ctx, u.run.blob, newest); err != nil {
			return err
		}
		upTo := newest
		if pin := u.pin.Load(); pin != 0 && pin < upTo {
			upTo = pin
		}
		if upTo <= keepVersions {
			return nil
		}
		upTo -= keepVersions
		if _, _, err := c.ExpireVersions(ctx, u.run.blob, upTo); err != nil {
			return err
		}
		st, err := c.CollectGarbage(ctx, u.run.blob)
		if err != nil {
			return err
		}
		gcs.add(st)
		u.run.model.forgetBelow(upTo + 1)
		return nil
	})
}

// readNewest runs RECENT and reads 1 MiB of that version at a seeded
// page-aligned offset, checked against the model.
func (u *updater) readNewest(rec *recorder, r *rand.Rand, buf []byte) error {
	c := u.run.st.clients[1]
	ctx := context.Background()
	at := r.Intn(u.run.pages - readPages + 1)
	u.pin.Store(u.done.Load())
	defer u.pin.Store(0)
	var checkErr error
	err := u.op(rec, opRead, len(buf), func() error {
		v, _, err := c.Recent(ctx, u.run.blob)
		if err != nil {
			return err
		}
		err, checkErr = u.run.readChecked(ctx, c, u.pl, buf, v, at)
		return err
	})
	if checkErr != nil {
		return checkErr
	}
	return err
}

// op times fn as an operation of client 0 (writer) or 1 (reader); rec
// nil runs it untimed.
func (u *updater) op(rec *recorder, op uint8, payload int, fn func() error) error {
	if rec == nil {
		return fn()
	}
	client := int32(0)
	if op == opRead {
		client = 1
	}
	return timed(u.cfg, rec, u.run.st.sched.Now, client, op, payload, fn)
}

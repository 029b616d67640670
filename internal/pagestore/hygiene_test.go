package pagestore

import (
	"bytes"
	"testing"

	"blobseer/internal/seglog"
	"blobseer/internal/seglog/seglogtest"
	"blobseer/internal/wire"
)

// countRecordKinds tallies put and tombstone records on disk — the
// ground truth the hygiene assertions run on.
func countRecordKinds(t *testing.T, base string) (puts, tombs int) {
	seglogtest.ScanRecords(t, pages, base, func(_ uint64, r seglog.Record[wire.PageID], _ int64) {
		if r.Kind == seglog.RecPut {
			puts++
		} else {
			tombs++
		}
	})
	return puts, tombs
}

// rollForTest seals the active segment so the records just written are
// eligible for compaction (the active segment never is): a snapshot
// capture rolls the log at its cut.
func (d *Disk) rollForTest(t *testing.T) {
	t.Helper()
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionConvergesChurnedLogToLiveSet pins the generational
// tombstone-hygiene cascade: after heavy churn, one full compaction pass
// converges the log to exactly its live set — every dead put gone, and
// every tombstone too, because once the puts it suppressed are dropped
// from earlier segments nothing is left to resurrect its key. Without
// the cascade, tombstones of long-dead pages ride along forever.
func TestCompactionConvergesChurnedLogToLiveSet(t *testing.T) {
	path := t.TempDir() + "/pages.log"
	d := mustOpen(t, path, DiskOptions{SegmentBytes: 512})
	const n = 120
	live := make(map[int][]byte)
	for i := 0; i < n; i++ {
		data := pageData(i)
		if err := d.Put(pidN(i), data); err != nil {
			t.Fatal(err)
		}
		live[i] = data
	}
	for i := 0; i < n; i++ {
		if i%6 != 0 {
			if err := d.Delete(pidN(i)); err != nil {
				t.Fatal(err)
			}
			delete(live, i)
		}
	}
	d.rollForTest(t) // seal the tombstone tail; the active segment is never compacted

	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.Compactions() == 0 {
		t.Fatal("churned log compacted nothing")
	}
	puts, tombs := countRecordKinds(t, path)
	if tombs != 0 {
		t.Fatalf("%d tombstones survive a full compaction of a churned log; hygiene did not converge", tombs)
	}
	if puts != len(live) {
		t.Fatalf("%d put records on disk, want exactly the %d live pages", puts, len(live))
	}

	// Converged does not mean lossy: live pages byte-identical, deleted
	// pages dead, across the rewrite and a restart.
	check := func(s *Disk) {
		t.Helper()
		for i := 0; i < n; i++ {
			if data, ok := live[i]; ok {
				got, err := s.Get(pidN(i), 0, wire.WholePage)
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("live page %d: %v", i, err)
				}
			} else if s.Has(pidN(i)) {
				t.Fatalf("deleted page %d resurrected", i)
			}
		}
	}
	check(d)
	d.Close()
	d2 := mustOpen(t, path, DiskOptions{SegmentBytes: 512})
	defer d2.Close()
	check(d2)
}

// TestSnapshotSeededReopenNoSpuriousRewrite pins the headline fix: v2
// index snapshots persist per-segment tombstone bytes, so a
// snapshot-seeded recovery sees the same reclaim estimates the store had
// before the restart. The fixture builds the exact shape the old v1
// undercount mis-judged — a sealed tombstone-heavy segment (live ratio
// under CompactRatio) with nothing actually reclaimable — and asserts a
// post-reopen compaction stays a no-op instead of pointlessly rewriting
// the segment to byte-identical contents.
func TestSnapshotSeededReopenNoSpuriousRewrite(t *testing.T) {
	path := t.TempDir() + "/pages.log"
	opts := DiskOptions{SegmentBytes: 1 << 20, CompactRatio: 0.25}
	d := mustOpen(t, path, opts)

	// Segment 1: one big live page plus ten small soon-dead ones. The big
	// page keeps the live ratio above CompactRatio, so the dead puts stay
	// (the ratio gate protects mostly-live segments from rewrite churn) —
	// which in turn keeps the tombstones in segment 2 load-bearing.
	big := bytes.Repeat([]byte{0xAB}, 400)
	if err := d.Put(pidN(1000), big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Put(pidN(i), bytes.Repeat([]byte{byte(i)}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	d.rollForTest(t)
	// Segment 2: the ten tombstones plus one small live put — tombstone
	// bytes dominate, live ratio far below CompactRatio.
	for i := 0; i < 10; i++ {
		if err := d.Delete(pidN(i)); err != nil {
			t.Fatal(err)
		}
	}
	small := bytes.Repeat([]byte{0xCD}, 20)
	if err := d.Put(pidN(1001), small); err != nil {
		t.Fatal(err)
	}
	d.rollForTest(t)

	// Steady state: nothing is reclaimable at this ratio.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if c := d.Compactions(); c != 0 {
		t.Fatalf("fixture not steady before snapshot: %d rewrites", c)
	}
	// The fixture really has the shape the bug needs: a sealed segment
	// whose tombstone bytes put its reclaim at zero while its live ratio
	// is below the threshold.
	type tally struct{ payload, live, tomb int64 }
	segs := map[uint64]*tally{}
	seglogtest.ScanRecords(t, pages, path, func(seg uint64, r seglog.Record[wire.PageID], n int64) {
		if segs[seg] == nil {
			segs[seg] = &tally{}
		}
		segs[seg].payload += n
		if r.Kind == seglog.RecTomb {
			segs[seg].tomb += n
		} else if d.Has(r.Key) {
			segs[seg].live += n
		}
	})
	shaped := false
	for _, g := range segs {
		if g.tomb > 0 && g.payload-g.live-g.tomb <= 0 && float64(g.live)/float64(g.payload) < opts.CompactRatio {
			shaped = true
		}
	}
	if !shaped {
		t.Fatal("fixture built no tombstone-heavy zero-reclaim segment; the test would pass vacuously")
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, tombsBefore := countRecordKinds(t, path)
	if tombsBefore == 0 {
		t.Fatal("no tombstones on disk at close; the test would pass vacuously")
	}
	d.Close()

	d2 := mustOpen(t, path, opts)
	defer d2.Close()
	if !d2.RecoveryStats().SnapshotLoaded {
		t.Fatalf("snapshot not loaded: %+v", d2.RecoveryStats())
	}
	if err := d2.Compact(); err != nil {
		t.Fatal(err)
	}
	if c := d2.Compactions(); c != 0 {
		t.Fatalf("snapshot-seeded reopen triggered %d spurious rewrites of the tombstone-heavy segment", c)
	}
	if _, tombsAfter := countRecordKinds(t, path); tombsAfter != tombsBefore {
		t.Fatalf("tombstones on disk changed %d -> %d across a no-op compaction", tombsBefore, tombsAfter)
	}
	// The tombstones are still doing their job.
	for i := 0; i < 10; i++ {
		if d2.Has(pidN(i)) {
			t.Fatalf("deleted page %d resurrected after seeded reopen", i)
		}
	}
	got, err := d2.Get(pidN(1000), 0, wire.WholePage)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big live page after reopen: %v", err)
	}
}

package pagestore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"blobseer/internal/seglog"
	"blobseer/internal/seglog/seglogtest"
	"blobseer/internal/wire"
)

// pidN builds a deterministic page id from an integer.
func pidN(n int) wire.PageID {
	var id wire.PageID
	binary.LittleEndian.PutUint64(id[0:8], uint64(n)*0x9E3779B97F4A7C15)
	binary.LittleEndian.PutUint64(id[8:16], uint64(n))
	return id
}

func pageData(n int) []byte {
	return bytes.Repeat([]byte{byte(n), byte(n >> 8)}, 20+n%60)
}

func mustOpen(t *testing.T, path string, opts DiskOptions) *Disk {
	t.Helper()
	d, err := OpenDisk(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskRollsSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	d := mustOpen(t, path, DiskOptions{SegmentBytes: 256})
	const n = 40
	for i := 0; i < n; i++ {
		if err := d.Put(pidN(i), pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("only %d segments after %d puts with tiny roll threshold", len(segs), n)
	}
	// Every page readable while spread over many segments.
	for i := 0; i < n; i++ {
		got, err := d.Get(pidN(i), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, pageData(i)) {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	d.Close()

	// And after a full-rescan reopen.
	d2 := mustOpen(t, path, DiskOptions{SegmentBytes: 256})
	defer d2.Close()
	if st := d2.RecoveryStats(); st.SnapshotLoaded || st.SegmentsRescanned != len(segs) {
		t.Fatalf("recovery stats = %+v, want full rescan of %d segments", st, len(segs))
	}
	for i := 0; i < n; i++ {
		got, err := d2.Get(pidN(i), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, pageData(i)) {
			t.Fatalf("page %d after reopen: %v", i, err)
		}
	}
}

func TestDiskSnapshotBoundsReopenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	opts := DiskOptions{SegmentBytes: 512}
	d := mustOpen(t, path, opts)
	for i := 0; i < 50; i++ {
		if err := d.Put(pidN(i), pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Tail records after the snapshot: some puts, one delete.
	for i := 50; i < 60; i++ {
		if err := d.Put(pidN(i), pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete(pidN(3)); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2 := mustOpen(t, path, opts)
	defer d2.Close()
	st := d2.RecoveryStats()
	if !st.SnapshotLoaded {
		t.Fatalf("snapshot not loaded: %+v", st)
	}
	if st.SnapshotKeys != 50 {
		t.Fatalf("snapshot pages = %d, want 50", st.SnapshotKeys)
	}
	// Only the tail (10 puts + 1 tombstone) replays, not all 61 records.
	if st.RecordsReplayed != 11 {
		t.Fatalf("records replayed = %d, want 11 (stats %+v)", st.RecordsReplayed, st)
	}
	for i := 0; i < 60; i++ {
		if i == 3 {
			if d2.Has(pidN(3)) {
				t.Fatal("deleted page resurrected by snapshot+tail recovery")
			}
			continue
		}
		got, err := d2.Get(pidN(i), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, pageData(i)) {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	if pages, _ := d2.Stats(); pages != 59 {
		t.Fatalf("pages = %d, want 59", pages)
	}
}

func TestDiskDeleteSurvivesRestartAndFullRescan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	d := mustOpen(t, path, DiskOptions{})
	d.Put(pidN(1), pageData(1))
	d.Put(pidN(2), pageData(2))
	if err := d.Delete(pidN(1)); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// No snapshot was ever written: the tombstone alone must keep the
	// page dead across a full rescan.
	d2 := mustOpen(t, path, DiskOptions{})
	defer d2.Close()
	if d2.Has(pidN(1)) {
		t.Fatal("tombstone ignored by full rescan")
	}
	if !d2.Has(pidN(2)) {
		t.Fatal("live page lost")
	}
}

func TestDiskCompactionShrinksAndPreservesLivePages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	opts := DiskOptions{SegmentBytes: 1024}
	d := mustOpen(t, path, opts)
	const n = 200
	live := make(map[int][]byte)
	for i := 0; i < n; i++ {
		data := pageData(i)
		if err := d.Put(pidN(i), data); err != nil {
			t.Fatal(err)
		}
		live[i] = data
	}
	// Churn: delete three quarters — superseded versions' pages.
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			if err := d.Delete(pidN(i)); err != nil {
				t.Fatal(err)
			}
			delete(live, i)
		}
	}
	before := d.LogBytes()
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	after := d.LogBytes()
	if after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before, after)
	}
	if d.Compactions() == 0 {
		t.Fatal("no segment was rewritten")
	}
	// Every retained page byte-identical, every deleted page still gone.
	check := func(s *Disk) {
		t.Helper()
		for i := 0; i < n; i++ {
			if data, ok := live[i]; ok {
				got, err := s.Get(pidN(i), 0, wire.WholePage)
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("live page %d after compaction: %v", i, err)
				}
			} else if s.Has(pidN(i)) {
				t.Fatalf("deleted page %d resurrected", i)
			}
		}
	}
	check(d)
	d.Close()
	d2 := mustOpen(t, path, opts)
	defer d2.Close()
	check(d2)
	if pages, _ := d2.Stats(); pages != uint64(len(live)) {
		t.Fatalf("pages after reopen = %d, want %d", pages, len(live))
	}
}

func TestDiskAutoMaintenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	opts := DiskOptions{SegmentBytes: 512, SnapshotEvery: 25, CompactRatio: 0.5}
	d := mustOpen(t, path, opts)
	for i := 0; i < 100; i++ {
		if err := d.Put(pidN(i), pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 90; i++ {
		if err := d.Delete(pidN(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The background maintainer runs asynchronously; poke it via the
	// deterministic on-demand entry points and verify the automatic ones
	// also fired at least once by now or after an explicit pass.
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.Snapshots() == 0 || d.Compactions() == 0 {
		t.Fatalf("maintenance did not run: %d snapshots, %d compactions", d.Snapshots(), d.Compactions())
	}
	d.Close()
	d2 := mustOpen(t, path, opts)
	defer d2.Close()
	for i := 90; i < 100; i++ {
		got, err := d2.Get(pidN(i), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, pageData(i)) {
			t.Fatalf("page %d: %v", i, err)
		}
	}
}

func TestDiskGroupCommitConcurrentTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	opts := DiskOptions{Sync: true, GroupCommit: true, SegmentBytes: 4096, SnapshotEvery: 64, CompactRatio: 0.6}
	d := mustOpen(t, path, opts)
	const workers = 8
	const perWorker = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				if err := d.Put(pidN(n), pageData(n)); err != nil {
					t.Errorf("put %d: %v", n, err)
					return
				}
				got, err := d.Get(pidN(n), 0, wire.WholePage)
				if err != nil || !bytes.Equal(got, pageData(n)) {
					t.Errorf("get %d: %v", n, err)
					return
				}
				if i%3 == 0 {
					if err := d.Delete(pidN(n)); err != nil {
						t.Errorf("delete %d: %v", n, err)
						return
					}
				}
			}
		}(w)
	}
	// Maintenance racing the traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := d.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			if err := d.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	appends, syncs := d.WriteStats()
	if appends == 0 || syncs == 0 {
		t.Fatalf("write stats = %d appends, %d syncs", appends, syncs)
	}
	if syncs >= appends {
		t.Fatalf("group commit shared no fsyncs: %d syncs for %d appends", syncs, appends)
	}
	want := make(map[int]bool)
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			n := w*perWorker + i
			want[n] = i%3 != 0
		}
	}
	d.Close()
	d2 := mustOpen(t, path, opts)
	defer d2.Close()
	for n, alive := range want {
		if alive {
			got, err := d2.Get(pidN(n), 0, wire.WholePage)
			if err != nil || !bytes.Equal(got, pageData(n)) {
				t.Fatalf("page %d after restart: %v", n, err)
			}
		} else if d2.Has(pidN(n)) {
			t.Fatalf("deleted page %d resurrected after restart", n)
		}
	}
}

func TestDiskRefusesSegmentGap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	d := mustOpen(t, path, DiskOptions{SegmentBytes: 256})
	for i := 0; i < 30; i++ {
		d.Put(pidN(i), pageData(i))
	}
	segs, _ := listSegments(path)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	d.Close()
	if err := os.Remove(segmentPath(path, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path, DiskOptions{}); err == nil {
		t.Fatal("open succeeded with a missing segment")
	}
}

func TestDiskCorruptSnapshotFallsBackToRescan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	d := mustOpen(t, path, DiskOptions{SegmentBytes: 512})
	for i := 0; i < 30; i++ {
		d.Put(pidN(i), pageData(i))
	}
	d.Delete(pidN(7))
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Flip a byte inside the snapshot payload.
	snapPath := seglog.SnapshotPath(path)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[seglog.FrameHeaderSize+5] ^= 0xFF
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, path, DiskOptions{SegmentBytes: 512})
	defer d2.Close()
	st := d2.RecoveryStats()
	if st.SnapshotLoaded {
		t.Fatalf("corrupt snapshot trusted: %+v", st)
	}
	for i := 0; i < 30; i++ {
		if i == 7 {
			if d2.Has(pidN(7)) {
				t.Fatal("deleted page resurrected by fallback rescan")
			}
			continue
		}
		got, err := d2.Get(pidN(i), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, pageData(i)) {
			t.Fatalf("page %d: %v", i, err)
		}
	}
}

func TestDiskAppendsIntoCoveredSegmentSurvive(t *testing.T) {
	// A torn roll can demote the active segment back into the range the
	// snapshot covers; records appended there afterwards must still be
	// replayed on the next open (regression: the covered-highest segment
	// was skipped entirely, silently dropping acknowledged puts).
	path := filepath.Join(t.TempDir(), "pages.log")
	d := mustOpen(t, path, DiskOptions{})
	d.Put(pidN(1), pageData(1))
	if err := d.Snapshot(); err != nil { // rolls to segment 2, covers segment 1
		t.Fatal(err)
	}
	d.Close()
	// Tear the freshly rolled segment's header: open removes it and
	// makes covered segment 1 active again.
	if err := os.Truncate(segmentPath(path, 2), 3); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, path, DiskOptions{})
	if err := d2.Put(pidN(2), pageData(2)); err != nil {
		t.Fatal(err)
	}
	if err := d2.Delete(pidN(1)); err != nil {
		t.Fatal(err)
	}
	d2.Close()

	d3 := mustOpen(t, path, DiskOptions{})
	defer d3.Close()
	got, err := d3.Get(pidN(2), 0, wire.WholePage)
	if err != nil || !bytes.Equal(got, pageData(2)) {
		t.Fatalf("post-snapshot put into covered segment lost: %v", err)
	}
	if d3.Has(pidN(1)) {
		t.Fatal("post-snapshot delete into covered segment lost")
	}
	// A torn tail in that covered-highest segment must also be truncated
	// so future appends do not land behind garbage.
	seglogtest.EditFile(t, segmentPath(path, 1), func(raw []byte) []byte { return append(raw, 0xE5, 0x5E, 0x0B) })
	d4 := mustOpen(t, path, DiskOptions{})
	defer d4.Close()
	if err := d4.Put(pidN(3), pageData(3)); err != nil {
		t.Fatal(err)
	}
	d4.Close()
	d5 := mustOpen(t, path, DiskOptions{})
	defer d5.Close()
	for _, n := range []int{2, 3} {
		got, err := d5.Get(pidN(n), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, pageData(n)) {
			t.Fatalf("page %d after torn-tail truncation: %v", n, err)
		}
	}
}

func TestDiskTornRollRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	d := mustOpen(t, path, DiskOptions{})
	d.Put(pidN(1), pageData(1))
	d.Close()
	// A roll that crashed after creating the file but before the header
	// was durable: a short highest segment.
	if err := os.WriteFile(segmentPath(path, 2), []byte{0x60}, 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, path, DiskOptions{})
	defer d2.Close()
	if !d2.Has(pidN(1)) {
		t.Fatal("page lost across torn roll")
	}
	if err := d2.Put(pidN(2), pageData(2)); err != nil {
		t.Fatal(err)
	}
}

func TestDiskDuplicateConcurrentPuts(t *testing.T) {
	// Concurrent puts of the same id may both append a record; the store
	// must stay consistent and recovery must keep exactly one.
	path := filepath.Join(t.TempDir(), "pages.log")
	d := mustOpen(t, path, DiskOptions{GroupCommit: true})
	data := pageData(42)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := d.Put(pidN(i), data); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if pages, _ := d.Stats(); pages != 50 {
		t.Fatalf("pages = %d, want 50", pages)
	}
	d.Close()
	d2 := mustOpen(t, path, DiskOptions{})
	defer d2.Close()
	if pages, _ := d2.Stats(); pages != 50 {
		t.Fatalf("pages after reopen = %d, want 50", pages)
	}
	for i := 0; i < 50; i++ {
		got, err := d2.Get(pidN(i), 0, wire.WholePage)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("page %d: %v", i, err)
		}
	}
}

func TestDiskSegmentFileNamesAreStable(t *testing.T) {
	// The on-disk names are part of the operational contract documented
	// in the README; a rename would orphan existing deployments.
	path := filepath.Join(t.TempDir(), "pages.log")
	d := mustOpen(t, path, DiskOptions{})
	d.Put(pidN(1), pageData(1))
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	for _, name := range []string{path + ".000001", path + ".snapshot"} {
		if _, err := os.Stat(name); err != nil {
			t.Fatalf("expected %s: %v", filepath.Base(name), err)
		}
	}
}

func TestDiskManySegmentsReopenStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	opts := DiskOptions{SegmentBytes: 2048}
	d := mustOpen(t, path, opts)
	const n = 300
	for i := 0; i < n; i++ {
		if err := d.Put(pidN(i), pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2 := mustOpen(t, path, opts)
	defer d2.Close()
	st := d2.RecoveryStats()
	if !st.SnapshotLoaded || st.RecordsReplayed != 0 {
		t.Fatalf("stats after snapshot-covered reopen: %+v", st)
	}
	if st.SegmentsOnDisk < 5 {
		t.Fatalf("segments on disk = %d, want many", st.SegmentsOnDisk)
	}
	if pages, _ := d2.Stats(); pages != n {
		t.Fatalf("pages = %d, want %d", pages, n)
	}
}

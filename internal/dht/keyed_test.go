package dht

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/seglog"
	"blobseer/internal/seglog/seglogtest"
)

func crashKey(i int) []byte { return []byte(fmt.Sprintf("tree/node/%03d", i)) }
func crashVal(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 3)}, 40+i%7) }

func newestSegment(t *testing.T, base string) string {
	t.Helper()
	segs, err := metaFmt.ListSegments(base)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments at %s: %v", base, err)
	}
	return seglog.SegmentPath(base, segs[len(segs)-1])
}

// mustOpenLogPairs opens the log and checks the pairs it loaded are
// exactly what the log indexes.
func mustOpenLogPairs(t testing.TB, path string, opts LogOptions) (*metaLog, [][2][]byte) {
	t.Helper()
	l, pairs, err := openMetaLog(path, opts)
	if err != nil {
		t.Fatalf("open meta log: %v", err)
	}
	if keys, _ := l.Stats(); keys != uint64(len(pairs)) {
		t.Fatalf("loaded %d pairs, log indexes %d", len(pairs), keys)
	}
	for _, kv := range pairs {
		if v, ok, err := seglogtest.Get(l, string(kv[0])); err != nil || !ok || !bytes.Equal(v, kv[1]) {
			t.Fatalf("loaded pair %q differs from the log: %v", kv[0], err)
		}
	}
	return l, pairs
}

// metaPairs runs the shared seglog.Keyed suite over the metadata log:
// its codec and dialect, opened through openMetaLog with the loaded
// pairs cross-checked.
var metaPairs = seglogtest.Instance[string]{
	Format: metaFmt,
	Codec:  metaKeys,
	Open: func(t testing.TB, path string, o seglog.KeyedOptions) *seglog.Keyed[string] {
		l, _ := mustOpenLogPairs(t, path, LogOptions{
			Sync: o.Sync, SegmentBytes: o.SegmentBytes,
			SnapshotEvery: o.SnapshotEvery, CompactRatio: o.CompactRatio,
		})
		return l
	},
	Key:          func(i int) string { return string(crashKey(i)) },
	Val:          crashVal,
	SegmentBytes: 512,
}

func TestDHTMaintenanceCrashInjection(t *testing.T) { seglogtest.CrashTable(t, metaPairs) }
func TestEveryDHTMaintenanceCrashPointIsExercised(t *testing.T) {
	seglogtest.EveryCrashPoint(t, metaPairs)
}
func TestDHTCompactionCrashThenCompactAgain(t *testing.T) {
	seglogtest.CompactCrashThenCompactAgain(t, metaPairs)
}
func TestDHTSnapshotFailureKeepsCountdown(t *testing.T) {
	seglogtest.SnapshotFailureKeepsCountdown(t, metaPairs)
}
func TestLogFreeDuringParkedCommit(t *testing.T) { seglogtest.ReadsOverlapParkedCommit(t, metaPairs) }

func FuzzDecodeDHTSegmentRecord(f *testing.F) {
	enc := func(kind byte, k string, v []byte) []byte {
		return metaKeys.EncodeRecord(seglog.Record[string]{Kind: kind, Key: k, Body: v})
	}
	seglogtest.FuzzRecords(f, metaKeys,
		enc(seglog.RecPut, "node/1", []byte("tree node bytes")),
		enc(seglog.RecPut, "k", nil),
		enc(seglog.RecTomb, "node/2", nil),
		[]byte{}, []byte{99}, []byte{seglog.RecTomb, 1, 0, 0, 0, 'x', 'y'})
}

// goldenSnapshot is a v2 index snapshot with every field exercised.
func goldenSnapshot() *seglog.IndexSnapshot[string] {
	return &seglog.IndexSnapshot[string]{
		IndexMeta: seglog.IndexMeta{Segs: []seglog.SegMeta{{Gen: 1, Live: 211, Tomb: 42}, {Gen: 4}}},
		Entries: []seglog.SnapEntry[string]{
			{Key: "node/3", Entry: seglog.Entry{Seg: 2, Off: 700, Len: 33}},
			{Key: "a", Entry: seglog.Entry{Seg: 1, Off: 40}},
		},
	}
}

func FuzzDecodeDHTIndexSnapshot(f *testing.F) {
	enc := func(segs []seglog.SegMeta, ents ...seglog.SnapEntry[string]) []byte {
		return metaKeys.EncodeSnapshot(&seglog.IndexSnapshot[string]{IndexMeta: seglog.IndexMeta{Segs: segs}, Entries: ents})
	}
	entries := []seglog.SnapEntry[string]{
		{Key: "a", Entry: seglog.Entry{Seg: 1, Off: 40, Len: 10}},
		{Key: "node/7", Entry: seglog.Entry{Seg: 3, Off: 1 << 20}},
		{Key: "zz", Entry: seglog.Entry{Seg: 2, Off: 4096, Len: 1 << 16}},
	}
	seglogtest.FuzzSnapshots(f, metaKeys,
		enc(nil),
		enc([]seglog.SegMeta{{Gen: 1}, {Gen: 7}, {Gen: 3}}),
		enc([]seglog.SegMeta{{Gen: 1}, {Gen: 2}, {Gen: 9}}, entries...),
		enc([]seglog.SegMeta{{Gen: 1, Live: 211, Tomb: 42}, {Gen: 2}, {Gen: 9, Tomb: 63}}, entries...),
		[]byte{}, []byte{1, 0, 0, 0}, []byte{2, 0, 0, 0})
}

// TestFormatGolden pins the on-disk bytes of a put record, a delete and
// a v2 index snapshot to their encodings before the metadata log moved
// onto seglog.Keyed: existing logs and fuzz corpora must keep decoding.
func TestFormatGolden(t *testing.T) {
	frame := func(kind byte, k string, v []byte) []byte {
		return metaFmt.Frame(metaKeys.EncodeRecord(seglog.Record[string]{Kind: kind, Key: k, Body: v}))
	}
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"put", frame(seglog.RecPut, "node/1", []byte("tree node bytes")),
			"e55e7ad41a00000067488fe501060000006e6f64652f3174726565206e6f6465206279746573"},
		{"delete", frame(seglog.RecTomb, "node/2", nil),
			"e55e7ad40b000000aef6fa3702060000006e6f64652f32"},
		{"snapshot", metaKeys.EncodeSnapshot(goldenSnapshot()),
			"02000000020000000100000000000000d3000000000000002a000000000000000400000000000000" +
				"0000000000000000000000000000000002000000010000006101000000280000000000000000000000" +
				"060000006e6f64652f3302000000bc0200000000000021000000"},
	} {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s encodes to\n%s\nwant\n%s", g.name, got, g.want)
		}
	}
}

// TestBatchDeleteSharesOneCommit pins the group-commit economics the
// GC sweep depends on: a batch of deletes enqueued together and then
// awaited commits as ONE batch — one write+fsync — not one per key.
func TestBatchDeleteSharesOneCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.log")
	l, _ := mustOpenLogPairs(t, path, LogOptions{Sync: true})
	const n = 8
	for i := 0; i < n; i++ {
		if err := l.Put(string(crashKey(i)), crashVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	var commits, records atomic.Int64
	l.Hooks.Commit = func(batch int) {
		commits.Add(1)
		records.Add(int64(batch))
	}
	var enqueued []*seglog.Append[string]
	for i := 0; i < n; i++ {
		a, err := l.EnqueueDelete(string(crashKey(i)))
		if err != nil {
			t.Fatal(err)
		}
		enqueued = append(enqueued, a)
	}
	for _, a := range enqueued {
		if err := l.Await(a); err != nil {
			t.Fatal(err)
		}
	}
	if c := commits.Load(); c != 1 {
		t.Fatalf("delete batch took %d commits, want 1", c)
	}
	if r := records.Load(); r != n {
		t.Fatalf("committed %d records, want %d", r, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, pairs := mustOpenLogPairs(t, path, LogOptions{})
	defer l2.Close()
	if len(pairs) != 0 {
		t.Fatalf("reopen recovered %d pairs, want 0 after batch delete", len(pairs))
	}
}

// TestMetaLogConcurrentTwoPhaseStress races two-phase appends, batch
// deletes, on-demand snapshots and accounting reads against each other;
// run under -race it shreds the claim that the commit write, the size
// accounting and the capture cut are correctly synchronized. The final
// reopen checks nothing was lost or resurrected.
func TestMetaLogConcurrentTwoPhaseStress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.log")
	l, _ := mustOpenLogPairs(t, path, LogOptions{SegmentBytes: 2048})

	const workers = 8
	const per = 40
	key := func(w, i int) string { return fmt.Sprintf("w%02d/%04d", w, i) }
	val := func(w, i int) []byte { return bytes.Repeat([]byte{byte(w), byte(i)}, 16+i%9) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Put(key(w, i), val(w, i)); err != nil {
					t.Errorf("worker %d put %d: %v", w, i, err)
					return
				}
			}
			// Batch-delete the even half, sharing commits via the
			// enqueue-then-await-all shape the node's delete path uses.
			var enq []*seglog.Append[string]
			for i := 0; i < per; i += 2 {
				a, err := l.EnqueueDelete(key(w, i))
				if err != nil {
					t.Errorf("worker %d enqueue delete %d: %v", w, i, err)
					break
				}
				enq = append(enq, a)
			}
			for _, a := range enq {
				if err := l.Await(a); err != nil {
					t.Errorf("worker %d await delete: %v", w, err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := l.Snapshot(); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
			l.LogBytes()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, pairs := mustOpenLogPairs(t, path, LogOptions{})
	defer l2.Close()
	if want := workers * per / 2; len(pairs) != want {
		t.Fatalf("reopen recovered %d pairs, want %d", len(pairs), want)
	}
	got := make(map[string][]byte, len(pairs))
	for _, kv := range pairs {
		got[string(kv[0])] = kv[1]
	}
	for w := 0; w < workers; w++ {
		for i := 1; i < per; i += 2 {
			if v, ok := got[key(w, i)]; !ok || !bytes.Equal(v, val(w, i)) {
				t.Fatalf("pair %s missing or wrong after reopen", key(w, i))
			}
		}
	}
}

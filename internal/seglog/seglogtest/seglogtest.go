// Package seglogtest is the one crash-injection, overlap and fuzz suite
// for seglog.Keyed, run by every store built on it (the page store and
// the DHT's metadata log) over that store's own key codec and on-disk
// dialect, through the store's own open path. Only tests import it.
package seglogtest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"blobseer/internal/seglog"
)

// Instance is one keyed store under test.
type Instance[K comparable] struct {
	Format *seglog.Format
	Codec  *seglog.KeyCodec[K]
	// Open opens the store at path through its adapter (which checks its
	// own view of the recovered data, if it keeps one) and fails t on
	// error.
	Open func(t testing.TB, path string, opts seglog.KeyedOptions) *seglog.Keyed[K]
	// Key and Val generate the i-th key and its value.
	Key func(i int) K
	Val func(i int) []byte
	// SegmentBytes sizes the crash table's segments: small enough that
	// the workload spans many, so compaction has real victims.
	SegmentBytes int64
}

// errInjected is the simulated crash: the maintenance pass aborts
// exactly as a process death at that point would, and the test reopens
// on whatever the disk holds.
var errInjected = errors.New("injected crash")

// crashKeys is the crash workload's key count.
const crashKeys = 24

// Get reads k's whole body.
func Get[K comparable](s *seglog.Keyed[K], k K) ([]byte, bool, error) {
	return s.Read(k, func(n uint32) (uint32, uint32, error) { return 0, n, nil })
}

func (in Instance[K]) put(t testing.TB, s *seglog.Keyed[K], i int) {
	t.Helper()
	if err := s.Put(in.Key(i), in.Val(i)); err != nil {
		t.Fatalf("put %d: %v", i, err)
	}
}

func (in Instance[K]) del(t testing.TB, s *seglog.Keyed[K], i int) {
	t.Helper()
	if err := s.Delete(in.Key(i)); err != nil {
		t.Fatalf("delete %d: %v", i, err)
	}
}

// workload drives a deterministic history with everything the
// snapshotter and compactor must preserve: keys spread over many
// segments, deletions before a snapshot (reclaimable, reflected in the
// snapshot), the snapshot, and deletions after it (tombstones only in
// the tail). It returns the surviving keys; every other one must stay
// deleted.
func (in Instance[K]) workload(t testing.TB, s *seglog.Keyed[K]) map[int][]byte {
	t.Helper()
	for i := 0; i < crashKeys; i++ {
		in.put(t, s, i)
	}
	for i := 1; i < crashKeys; i += 3 {
		in.del(t, s, i)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < crashKeys; i += 3 {
		in.del(t, s, i)
	}
	live := make(map[int][]byte)
	for i := 0; i < crashKeys; i += 3 {
		live[i] = in.Val(i)
	}
	return live
}

// verify asserts s holds exactly the live keys byte-identically and
// none of the deleted ones.
func (in Instance[K]) verify(t testing.TB, s *seglog.Keyed[K], live map[int][]byte) {
	t.Helper()
	for i := 0; i < crashKeys; i++ {
		got, ok, err := Get(s, in.Key(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if want, isLive := live[i]; isLive && (!ok || !bytes.Equal(got, want)) {
			t.Fatalf("live key %d lost or not byte-identical after recovery", i)
		} else if !isLive && ok {
			t.Fatalf("deleted key %d resurrected", i)
		}
	}
	if keys, _ := s.Stats(); keys != uint64(len(live)) {
		t.Fatalf("keys = %d, want %d", keys, len(live))
	}
}

// CrashTable kills the snapshotter and the compactor at every fault
// point — plus torn-file variants a hook cannot express — and asserts
// the reopened store holds exactly what an uncrashed one does, and
// still serves.
func CrashTable[K comparable](t *testing.T, in Instance[K]) {
	opts := seglog.KeyedOptions{Sync: true, SegmentBytes: in.SegmentBytes}
	// The control must survive a clean restart unchanged, or the
	// comparisons below prove nothing.
	controlPath := filepath.Join(t.TempDir(), "log")
	control := in.Open(t, controlPath, opts)
	want := in.workload(t, control)
	in.verify(t, control, want)
	control.Close()
	control = in.Open(t, controlPath, opts)
	in.verify(t, control, want)
	control.Close()

	cases := []struct {
		name   string
		op     string // "snapshot" or "compact"
		point  string // "" = no hook crash, tamper only
		tamper func(t *testing.T, base string)
	}{
		{name: "snap-begin", op: "snapshot", point: seglog.CrashSnapBegin},
		{name: "snap-captured", op: "snapshot", point: seglog.CrashSnapCaptured},
		{name: "snap-tmp-written", op: "snapshot", point: seglog.CrashSnapTmpWritten},
		{name: "snap-renamed", op: "snapshot", point: seglog.CrashSnapRenamed},
		{name: "compact-tmp-written", op: "compact", point: seglog.CrashCompactTmpWritten},
		{name: "compact-renamed", op: "compact", point: seglog.CrashCompactRenamed},
		{name: "compact-applied", op: "compact", point: seglog.CrashCompactApplied},
		{name: "torn-snapshot-tmp", op: "snapshot", point: seglog.CrashSnapTmpWritten, tamper: func(t *testing.T, base string) {
			EditFile(t, seglog.SnapshotTmpPath(base), truncate(7))
		}},
		{name: "torn-snapshot", op: "snapshot", point: seglog.CrashSnapRenamed, tamper: func(t *testing.T, base string) {
			EditFile(t, seglog.SnapshotPath(base), truncate(7))
		}},
		{name: "corrupt-snapshot-crc", op: "snapshot", point: seglog.CrashSnapRenamed, tamper: func(t *testing.T, base string) {
			EditFile(t, seglog.SnapshotPath(base), func(raw []byte) []byte {
				raw[seglog.FrameHeaderSize+3] ^= 0xFF
				return raw
			})
		}},
		{name: "torn-compact-tmp", op: "compact", point: seglog.CrashCompactTmpWritten, tamper: func(t *testing.T, base string) {
			EditFile(t, seglog.CompactTmpPath(base), truncate(5))
		}},
		{name: "torn-segment-tail", tamper: func(t *testing.T, base string) {
			// A crash mid-append of a record that never applied: a valid
			// frame header claiming more payload than follows.
			var hdr [seglog.FrameHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], in.Format.RecMagic)
			binary.LittleEndian.PutUint32(hdr[4:8], 64)
			binary.LittleEndian.PutUint32(hdr[8:12], 0xBAD)
			EditFile(t, in.newestSegment(t, base), func(raw []byte) []byte { return append(raw, hdr[:]...) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "log")
			s := in.Open(t, base, opts)
			want := in.workload(t, s)
			if tc.point != "" {
				fired := false
				s.Hooks.Crash = func(p string) error {
					if p == tc.point {
						fired = true
						return errInjected
					}
					return nil
				}
				op := s.Snapshot
				if tc.op == "compact" {
					op = s.Compact
				}
				err := op()
				if !errors.Is(err, errInjected) {
					t.Fatalf("%s survived the injected crash: %v", tc.op, err)
				}
				if !fired {
					t.Fatalf("fault point %q never reached", tc.point)
				}
			}
			s.Close() // process death: nothing else runs
			if tc.tamper != nil {
				tc.tamper(t, base)
			}
			s = in.Open(t, base, opts)
			defer s.Close()
			in.verify(t, s, want)
			// The recovered store still serves: new keys, deletes, and
			// another maintenance pass all work.
			in.put(t, s, 1000)
			if got, ok, err := Get(s, in.Key(1000)); err != nil || !ok || !bytes.Equal(got, in.Val(1000)) {
				t.Fatalf("recovered store put/read: %v", err)
			}
			in.del(t, s, 1000)
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			in.verify(t, s, want)
		})
	}
}

// EveryCrashPoint keeps the fault-point table honest: a snapshot plus a
// compaction with work to do must pass through every declared point.
func EveryCrashPoint[K comparable](t *testing.T, in Instance[K]) {
	s := in.Open(t, filepath.Join(t.TempDir(), "log"), seglog.KeyedOptions{Sync: true, SegmentBytes: in.SegmentBytes})
	defer s.Close()
	in.workload(t, s)
	seen := make(map[string]bool)
	s.Hooks.Crash = func(p string) error {
		seen[p] = true
		return nil
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, p := range seglog.CrashPoints {
		if !seen[p] {
			t.Errorf("maintenance never reached fault point %q", p)
		}
	}
}

// CompactCrashThenCompactAgain drives the generation-mismatch recovery
// path end to end: crash after the rewrite is live but before the
// covering snapshot, recover (stale rescan), then compact again.
func CompactCrashThenCompactAgain[K comparable](t *testing.T, in Instance[K]) {
	base := filepath.Join(t.TempDir(), "log")
	opts := seglog.KeyedOptions{Sync: true, SegmentBytes: in.SegmentBytes}
	s := in.Open(t, base, opts)
	want := in.workload(t, s)
	s.Hooks.Crash = func(p string) error {
		if p == seglog.CrashCompactApplied {
			return errInjected
		}
		return nil
	}
	if err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("compact survived: %v", err)
	}
	s.Close()

	s = in.Open(t, base, opts)
	if st := s.RecoveryStats(); st.StaleRescanned == 0 {
		t.Fatalf("expected a stale (rewritten) segment rescan, got %+v", st)
	}
	in.verify(t, s, want)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	in.verify(t, s, want)
	s.Close()

	s = in.Open(t, base, opts)
	defer s.Close()
	in.verify(t, s, want)
}

// SnapshotFailureKeepsCountdown pins the snapshot-countdown rule: a
// failed publish leaves the event countdown and the dirty set intact
// (seglog.Capture.Abort), so the very next maintenance pass retries
// instead of waiting for another SnapshotEvery records.
func SnapshotFailureKeepsCountdown[K comparable](t *testing.T, in Instance[K]) {
	path := filepath.Join(t.TempDir(), "log")
	// Opened bare, with no background maintainer started, so the test
	// drives MaintainPass deterministically.
	s, err := seglog.OpenKeyed(path, in.Format, in.Codec, seglog.KeyedOptions{SegmentBytes: 1 << 20, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 6; i++ {
		in.put(t, s, i)
	}
	s.Hooks.Crash = func(point string) error {
		if point == seglog.CrashSnapTmpWritten {
			return errInjected
		}
		return nil
	}
	if !s.MaintainPass() {
		t.Fatal("MaintainPass reported closed")
	}
	if n := s.Snapshots(); n != 0 {
		t.Fatalf("snapshots after failed publish = %d, want 0", n)
	}
	if ev := s.SnapshotEvents(); ev < 6 {
		t.Fatalf("countdown consumed by failed snapshot: events = %d, want >= 6", ev)
	}
	// No new records: the retained countdown alone must trigger the retry.
	s.Hooks.Crash = nil
	if !s.MaintainPass() {
		t.Fatal("MaintainPass reported closed")
	}
	if n := s.Snapshots(); n != 1 {
		t.Fatalf("snapshots after retry = %d, want 1", n)
	}
	if ev := s.SnapshotEvents(); ev >= 4 {
		t.Fatalf("countdown not consumed by successful snapshot: events = %d", ev)
	}
	// The retried snapshot covers everything: one more record, and a
	// reopen replays only that tail.
	in.put(t, s, 7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = in.Open(t, path, seglog.KeyedOptions{})
	defer s.Close()
	if rs := s.RecoveryStats(); !rs.SnapshotLoaded || rs.RecordsReplayed != 1 {
		t.Fatalf("reopen after retried snapshot: %+v, want snapshot loaded and 1 record replayed", rs)
	}
	for i := 1; i <= 7; i++ {
		if got, ok, err := Get(s, in.Key(i)); err != nil || !ok || !bytes.Equal(got, in.Val(i)) {
			t.Fatalf("key %d after reopen: %v", i, err)
		}
	}
}

// ReadsOverlapParkedCommit pins the early-lock-release contract: while
// the group-commit leader sits in the write+fsync it holds only the
// snapshot cut shared, so reads and accounting proceed, later appenders
// queue without holding any lock, and an exclusive capture waits only
// for the in-flight batch. Every step synchronizes on channels; a
// regression deadlocks and the test times out.
func ReadsOverlapParkedCommit[K comparable](t *testing.T, in Instance[K]) {
	path := filepath.Join(t.TempDir(), "log")
	s := in.Open(t, path, seglog.KeyedOptions{Sync: true, SegmentBytes: 1 << 20})
	defer s.Close()
	in.put(t, s, 1)

	var gated atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	s.Hooks.Commit = func(int) {
		if gated.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}
	gated.Store(true)
	put2 := make(chan error, 1)
	go func() { put2 <- s.Put(in.Key(2), in.Val(2)) }()
	<-entered

	// The leader is parked mid-commit. Reads of durable keys and the
	// accounting must not block behind it...
	if got, ok, err := Get(s, in.Key(1)); err != nil || !ok || !bytes.Equal(got, in.Val(1)) {
		t.Fatalf("read while commit parked: %v", err)
	}
	if n := s.LogBytes(); n <= seglog.HeaderSize {
		t.Fatalf("log bytes while commit parked = %d", n)
	}
	// ...and the parked put is not yet visible: the index applies only
	// after durability.
	if s.Has(in.Key(2)) {
		t.Fatal("key visible before its batch committed")
	}
	// A second appender queues behind the parked leader.
	put3 := make(chan error, 1)
	go func() { put3 <- s.Put(in.Key(3), in.Val(3)) }()
	for s.QueueLen() < 1 {
		runtime.Gosched()
	}
	// An exclusive capture waits for the in-flight batch only, so once
	// the gate opens everything drains.
	snapDone := make(chan error, 1)
	go func() { snapDone <- s.Snapshot() }()
	close(release)
	if err := <-put2; err != nil {
		t.Fatalf("parked put: %v", err)
	}
	if err := <-put3; err != nil {
		t.Fatalf("queued put: %v", err)
	}
	if err := <-snapDone; err != nil {
		t.Fatalf("snapshot during parked commit: %v", err)
	}
	if n := s.Snapshots(); n != 1 {
		t.Fatalf("snapshots = %d, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = in.Open(t, path, seglog.KeyedOptions{})
	defer s.Close()
	for i := 1; i <= 3; i++ {
		if got, ok, err := Get(s, in.Key(i)); err != nil || !ok || !bytes.Equal(got, in.Val(i)) {
			t.Fatalf("key %d after reopen: %v", i, err)
		}
	}
}

// ScanRecords visits every record of every segment of the store rooted
// at base, in log order — the ground truth for on-disk assertions.
func ScanRecords[K comparable](t testing.TB, in Instance[K], base string, visit func(seg uint64, r seglog.Record[K], frameLen int64)) {
	t.Helper()
	idxs, err := in.Format.ListSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range idxs {
		path := seglog.SegmentPath(base, idx)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = in.Format.ReadHeader(f, path); err == nil {
			_, err = in.Format.Scan(f, path, false, func(payload []byte, _ int64) error {
				r, err := in.Codec.DecodeRecord(payload)
				if err == nil {
					visit(idx, r, int64(seglog.FrameHeaderSize+len(payload)))
				}
				return err
			})
		}
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzRecords pins the record codec: no panic on arbitrary bytes, and a
// successful decode re-encodes to exactly the input.
func FuzzRecords[K comparable](f *testing.F, c *seglog.KeyCodec[K], seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := c.DecodeRecord(data)
		if err != nil {
			return
		}
		enc := c.EncodeRecord(r)
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode(%x) = %+v re-encodes to %x", data, r, enc)
		}
		r2, err := c.DecodeRecord(enc)
		if err != nil || r2.Kind != r.Kind || r2.Key != r.Key || !bytes.Equal(r2.Body, r.Body) {
			t.Fatalf("re-decode of %+v: %+v, %v", r, r2, err)
		}
	})
}

// FuzzSnapshots pins the index snapshot codec the same way, plus the
// invariant recovery relies on before touching files: every decoded
// entry lies in the covered segment range.
func FuzzSnapshots[K comparable](f *testing.F, c *seglog.KeyCodec[K], seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := c.DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(c.EncodeSnapshot(s), data) {
			t.Fatalf("snapshot decode of %d bytes re-encodes differently", len(data))
		}
		for _, e := range s.Entries {
			if e.Seg == 0 || int(e.Seg) > len(s.Segs) {
				t.Fatalf("decoded entry in uncovered segment %d of %d", e.Seg, len(s.Segs))
			}
		}
	})
}

func (in Instance[K]) newestSegment(t testing.TB, base string) string {
	t.Helper()
	idxs, err := in.Format.ListSegments(base)
	if err != nil || len(idxs) == 0 {
		t.Fatalf("no segments at %s: %v", base, err)
	}
	return seglog.SegmentPath(base, idxs[len(idxs)-1])
}

// EditFile rewrites the file at path through edit: the tampers that
// stand in for torn writes and bit rot.
func EditFile(t testing.TB, path string, edit func(raw []byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err == nil {
		err = os.WriteFile(path, edit(raw), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func truncate(n int) func([]byte) []byte { return func(raw []byte) []byte { return raw[:len(raw)-n] } }

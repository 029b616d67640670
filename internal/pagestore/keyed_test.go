package pagestore

import (
	"encoding/hex"
	"path/filepath"
	"testing"

	"blobseer/internal/seglog"
	"blobseer/internal/seglog/seglogtest"
	"blobseer/internal/wire"
)

// pages runs the shared seglog.Keyed suite over the page store: its
// codec and dialect, opened through OpenDisk.
var pages = seglogtest.Instance[wire.PageID]{
	Format: pageFmt,
	Codec:  pageKeys,
	Open: func(t testing.TB, path string, o seglog.KeyedOptions) *seglog.Keyed[wire.PageID] {
		t.Helper()
		d, err := OpenDisk(path, DiskOptions{
			Sync: o.Sync, GroupCommit: !o.Serial, SegmentBytes: o.SegmentBytes,
			SnapshotEvery: o.SnapshotEvery, CompactRatio: o.CompactRatio,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d.Keyed
	},
	Key:          pidN,
	Val:          pageData,
	SegmentBytes: 256,
}

func listSegments(base string) ([]uint64, error) { return pageFmt.ListSegments(base) }
func segmentPath(base string, idx uint64) string { return seglog.SegmentPath(base, idx) }

func TestMaintenanceCrashInjection(t *testing.T)             { seglogtest.CrashTable(t, pages) }
func TestEveryMaintenanceCrashPointIsExercised(t *testing.T) { seglogtest.EveryCrashPoint(t, pages) }
func TestCompactionCrashThenCompactAgain(t *testing.T) {
	seglogtest.CompactCrashThenCompactAgain(t, pages)
}
func TestSnapshotFailureKeepsCountdown(t *testing.T) {
	seglogtest.SnapshotFailureKeepsCountdown(t, pages)
}
func TestReadsOverlapParkedCommit(t *testing.T) { seglogtest.ReadsOverlapParkedCommit(t, pages) }

func FuzzDecodeSegmentRecord(f *testing.F) {
	enc := func(kind byte, id wire.PageID, body []byte) []byte {
		return pageKeys.EncodeRecord(seglog.Record[wire.PageID]{Kind: kind, Key: id, Body: body})
	}
	seglogtest.FuzzRecords(f, pageKeys,
		enc(seglog.RecPut, pidN(1), []byte("page body")),
		enc(seglog.RecPut, pidN(2), nil),
		enc(seglog.RecTomb, pidN(3), nil),
		[]byte{}, []byte{99}, []byte{seglog.RecTomb, 1, 2, 3})
}

// goldenSnapshot is a v2 index snapshot with every field exercised.
func goldenSnapshot() *seglog.IndexSnapshot[wire.PageID] {
	return &seglog.IndexSnapshot[wire.PageID]{
		IndexMeta: seglog.IndexMeta{Segs: []seglog.SegMeta{{Gen: 1, Live: 129, Tomb: 29}, {Gen: 2}, {Gen: 9, Tomb: 58}}},
		Entries: []seglog.SnapEntry[wire.PageID]{
			{Key: pidN(3), Entry: seglog.Entry{Seg: 2, Off: 4096, Len: 1 << 16}},
			{Key: pidN(1), Entry: seglog.Entry{Seg: 1, Off: 45, Len: 100}},
			{Key: pidN(2), Entry: seglog.Entry{Seg: 3, Off: 1 << 20}},
		},
	}
}

func FuzzDecodeIndexSnapshot(f *testing.F) {
	segsOnly := &seglog.IndexSnapshot[wire.PageID]{IndexMeta: seglog.IndexMeta{
		Segs: []seglog.SegMeta{{Gen: 1}, {Gen: 7}, {Gen: 3}},
	}}
	rich := goldenSnapshot()
	noCounters := &seglog.IndexSnapshot[wire.PageID]{
		IndexMeta: seglog.IndexMeta{Segs: []seglog.SegMeta{{Gen: 1}, {Gen: 2}, {Gen: 9}}},
		Entries:   rich.Entries,
	}
	seglogtest.FuzzSnapshots(f, pageKeys,
		pageKeys.EncodeSnapshot(&seglog.IndexSnapshot[wire.PageID]{}),
		pageKeys.EncodeSnapshot(segsOnly),
		pageKeys.EncodeSnapshot(noCounters),
		pageKeys.EncodeSnapshot(rich),
		[]byte{}, []byte{1, 0, 0, 0}, []byte{2, 0, 0, 0})
}

// TestFormatGolden pins the on-disk bytes of a put record, a tombstone
// and a v2 index snapshot to their encodings before the page store moved
// onto seglog.Keyed: existing logs and fuzz corpora must keep decoding.
func TestFormatGolden(t *testing.T) {
	frame := func(kind byte, id wire.PageID, body []byte) []byte {
		return pageFmt.Frame(pageKeys.EncodeRecord(seglog.Record[wire.PageID]{Kind: kind, Key: id, Body: body}))
	}
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"put", frame(seglog.RecPut, pidN(1), []byte("page body")),
			"e55e0bb11a000000ba11764e01157c4a7fb979379e01000000000000007061676520626f6479"},
		{"tombstone", frame(seglog.RecTomb, pidN(3), nil),
			"e55e0bb1110000008b8baecc023f74df7d2c6da6da0300000000000000"},
		{"snapshot", pageKeys.EncodeSnapshot(goldenSnapshot()),
			"0200000003000000010000000000000081000000000000001d000000000000000200000000000000" +
				"00000000000000000000000000000000090000000000000000000000000000003a00000000000000" +
				"03000000157c4a7fb979379e0100000000000000010000002d000000000000006400000" +
				"02af894fe72f36e3c0200000000000000030000000000100000000000000000003f74df7d2c6da6da" +
				"030000000000000002000000001000000000000000000100"},
	} {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s encodes to\n%s\nwant\n%s", g.name, got, g.want)
		}
	}
}

// TestDiskNonSyncRollSealsSegment pins the seal rule: with Sync off,
// every roll fsyncs the segment it seals exactly once, because recovery
// accepts a torn tail only in the highest segment — an unsealed segment
// torn by a power cut after a roll would refuse the next open.
func TestDiskNonSyncRollSealsSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.log")
	d := mustOpen(t, path, DiskOptions{GroupCommit: true, SegmentBytes: 512})
	defer d.Close()
	for i := 0; i < 40; i++ {
		if err := d.Put(pidN(i), pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := pageFmt.ListSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	rolls := uint64(len(segs) - 1)
	if rolls < 3 {
		t.Fatalf("only %d rolls; the test needs several", rolls)
	}
	if _, syncs := d.WriteStats(); syncs != rolls {
		t.Fatalf("%d fsyncs over %d rolls, want exactly one seal per roll", syncs, rolls)
	}
}

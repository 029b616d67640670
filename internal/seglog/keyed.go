package seglog

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Keyed is the durable keyed segment store under the page store (page
// bodies keyed by page id) and the DHT's metadata log (tree nodes keyed
// by node key). Both hold immutable key→bytes pairs that only the
// garbage collector ever deletes, so one implementation serves both:
// records append to generation-stamped segments through group commit,
// an index maps each live key to its body's location, index snapshots
// bound reopen replay, and a compactor rewrites sealed segments that
// deletions emptied. The stores supply only their Format (magics) and
// KeyCodec, plus their own read surface.
//
// Segments never get deleted: compaction rewrites a sealed segment in
// place (tmp + fsync + rename, under a fresh generation), so the segment
// indices on disk are always contiguous from 1 and a full rescan can
// always rebuild the index. The crash-consistency argument:
//
//  1. A snapshot capture is a consistent cut: the exclusive committer
//     holds cutMu shared across commit+apply (Committer.Outer), and the
//     capture holds cutMu exclusively while it rolls the active segment
//     and resolves the dirty keys — so no record is split from its index
//     change, records queued behind the capture land in the post-roll
//     segment, and the captured index is exactly the replay of the
//     segments below the cut. Captures are incremental (Tracker): the
//     stop-the-world pause is O(keys changed), not O(keys held).
//  2. Snapshots and compaction outputs become visible only by the atomic
//     rename of a fully written (for compaction always fsynced) tmp
//     file: recovery never sees a half-written one.
//  3. A rewrite bumps the segment's generation, and the snapshot records
//     every covered segment's generation, so a crash after the rename but
//     before the covering snapshot is detected on reopen and that segment
//     alone is rescanned instead of trusting stale offsets.
//  4. Tombstones survive rewrites while an earlier segment still holds a
//     put for their key (hygiene.go), so even the no-snapshot full rescan
//     never resurrects a deleted key.
//
// Durability contract: with Sync on, a record is on disk before its
// append returns. With Sync off, a crash may lose acknowledged records
// of the active segment — but a clean Close loses nothing (it fsyncs
// every segment), and no crash stops the store from reopening: a roll
// fsyncs the sealed segment and the directory first, so only the highest
// segment can carry a torn tail, and recovery truncates it durably
// before new records land on top.
//
// Safety rule for space reclamation: the store never invents garbage. A
// key's bytes are dropped by compaction only after an explicit Delete,
// whose caller (a garbage collector walking version metadata) has proven
// the key unreachable. Everything still indexed survives any
// crash/compaction interleaving byte-identical — the invariant the
// stores' crash-injection tables assert at every fault point.
//
// Lock order, machine-checked by the lockorder analyzer (cmd/blobseer-vet):
//
//blobseer:lockorder maintMu < cutMu < segment.mu < logMu
type Keyed[K comparable] struct {
	ft    *Format
	codec *KeyCodec[K]
	base  string
	opts  KeyedOptions

	// maintMu serializes snapshots, compactions and Close's file sweep.
	maintMu sync.Mutex
	// cutMu is the snapshot cut (invariant 1 above). Appenders never
	// hold it across their park in the fsync: only the exclusive
	// committer does, shared.
	cutMu sync.RWMutex
	// logMu guards the index, the segment table, the active-segment
	// pointer, the accounting below and the commit queue: the Committer
	// borrows it, and runs the batch write+fsync outside it.
	logMu     sync.Mutex
	index     map[K]Entry
	segs      []*segment // segs[i] is segment i+1
	active    *segment
	comm      Committer[*Append[K]]
	closed    bool
	nextGen   uint64 // last generation handed out
	bodyBytes uint64 // summed body length of live keys
	snapRuns  uint64
	compRuns  uint64

	appends atomic.Uint64 // records committed
	syncs   atomic.Uint64 // record-data fsyncs: Sync-mode batches and segment seals

	// track owns the auto-snapshot countdown and the dirty key set for
	// incremental captures; every index change marks its key.
	track Tracker[K, Entry]
	maint *Maintainer
	rec   RecoveryStats

	// Hooks are the test-only fault injectors; set before traffic.
	Hooks TestHooks
}

// KeyedOptions tunes a Keyed store.
type KeyedOptions struct {
	// Sync fsyncs every batch before its appends return.
	Sync bool
	// Serial commits one record per write (+fsync) instead of grouping
	// concurrent appends: the ablation baseline.
	Serial bool
	// SegmentBytes rolls the log into a fresh segment once the active one
	// exceeds this size (default 64 MB).
	SegmentBytes int64
	// SnapshotEvery, when positive, snapshots the index automatically
	// after that many records. CompactRatio, when positive, makes the
	// background compactor rewrite sealed segments whose live-byte ratio
	// falls below it.
	SnapshotEvery int
	CompactRatio  float64
}

// DefaultSegmentBytes is the roll threshold when SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

// TestHooks are fault-injection points for tests.
type TestHooks struct {
	// Crash fires at every maintenance fault point (CrashPoints); an
	// error aborts the pass exactly as a process death there would.
	Crash func(point string) error
	// Commit runs in the exclusive committer before each batch write.
	Commit func(batch int)
}

// Entry locates one live body: bytes [Off, Off+Len) of segment Seg.
type Entry struct {
	Seg uint32
	Off int64
	Len uint32
}

// RecoveryStats describes what one open did: how much of the index came
// from the snapshot and how much was replayed by scanning segments.
// With automatic snapshots RecordsReplayed stays bounded by
// SnapshotEvery however many keys the store holds.
type RecoveryStats struct {
	SnapshotLoaded    bool // a valid index snapshot seeded the index
	SnapshotKeys      int  // keys restored from the snapshot
	SegmentsOnDisk    int  // segment files found or created at open
	SegmentsRescanned int  // segments scanned record by record
	StaleRescanned    int  // of those, rewritten after the snapshot
	RecordsReplayed   int  // records visited by rescans
}

// ErrClosed is returned by operations racing Close.
var ErrClosed = errors.New("seglog: store closed")

// segment is one segment file and its accounting.
type segment struct {
	idx uint32
	// mu guards f against compaction's handle swap: readers hold it
	// shared across their pread, so a swap never closes a file under
	// them.
	mu sync.RWMutex
	f  *os.File
	// size is the file length. The exclusive committer advances the
	// active segment's outside logMu; everything else reads it anywhere.
	size atomic.Int64

	// Guarded by logMu. liveBytes is the framed size of the put records
	// the index points at, tombBytes of the tombstones the last rewrite
	// kept; size - header - live - tomb estimates what a rewrite would
	// reclaim. hygiene flags the segment for a tombstone-hygiene rewrite
	// (hygiene.go).
	gen       uint64
	liveBytes int64
	tombBytes int64
	hygiene   bool
}

// Append is one queued record and its appender's parking spot.
type Append[K comparable] struct {
	frame   []byte
	put     bool
	key     K
	bodyLen uint32

	// Filled by the committer: where the body landed.
	seg     uint32
	bodyOff int64

	cell Cell
}

// Cell implements Parked.
func (a *Append[K]) Cell() *Cell { return &a.cell }

// OpenKeyed opens (creating if needed) the keyed store rooted at path
// and rebuilds its index: it loads the newest valid index snapshot,
// verifies each covered segment's generation, and rescans only the tail
// (plus any segment a crashed compaction rewrote). A torn record at the
// tail of the highest segment is truncated away; a torn or corrupt
// snapshot degrades to a full rescan. Background maintenance starts
// with Start.
func OpenKeyed[K comparable](path string, ft *Format, codec *KeyCodec[K], opts KeyedOptions) (*Keyed[K], error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("%s: create dir: %w", ft.Name, err)
	}
	s := &Keyed[K]{ft: ft, codec: codec, base: path, opts: opts, index: make(map[K]Entry)}
	s.comm = Committer[*Append[K]]{
		Mu:        &s.logMu,
		Serial:    opts.Serial,
		Closed:    func() bool { return s.closed },
		ErrClosed: ErrClosed,
		Commit:    s.commit,
		Apply:     s.apply,
		// Re-check closed before rolling: Close may have finished while
		// the commit ran outside logMu, and a roll now would create a
		// stray segment after the files were swept.
		MaybeRoll: func() {
			if !s.closed && s.active.size.Load() >= s.opts.SegmentBytes {
				s.rollLocked() // best effort: a failed roll leaves the oversized segment active
			}
		},
		Outer: func() func() { s.cutMu.RLock(); return s.cutMu.RUnlock },
	}
	if err := s.recover(); err != nil {
		for _, seg := range s.segs {
			seg.f.Close()
		}
		return nil, err
	}
	// Replayed tail records count toward the auto-snapshot interval, or
	// a crash-looping store whose runs each log fewer than SnapshotEvery
	// records would grow its tail without bound.
	s.track.AddEvents(s.rec.RecordsReplayed)
	return s, nil
}

// Start launches background maintenance when the options ask for
// automatic snapshots or compaction; Close stops it.
func (s *Keyed[K]) Start() {
	if s.opts.SnapshotEvery <= 0 && s.opts.CompactRatio <= 0 {
		return
	}
	s.maint = NewMaintainer(s.MaintainPass)
	s.maint.Start()
	if s.opts.SnapshotEvery > 0 && s.rec.RecordsReplayed >= s.opts.SnapshotEvery {
		s.maint.Nudge()
	}
}

func (s *Keyed[K]) seg(idx uint32) *segment { return s.segs[idx-1] }

// framedLen is the on-disk size of a record for k with an n-byte body.
func (s *Keyed[K]) framedLen(k K, n uint32) int64 {
	return int64(FrameHeaderSize+1+s.codec.Len(k)) + int64(n)
}

// recover rebuilds the index from disk (see the Keyed doc for the
// crash-consistency argument).
//
//blobseer:seglog keyed-recover
func (s *Keyed[K]) recover() error {
	ft, base := s.ft, s.base
	// Leftover tmp files from interrupted maintenance are garbage: only
	// the atomic renames ever activate them.
	RemoveTmp(base)
	idxs, err := ft.ListSegments(base)
	if err != nil {
		return err
	}
	// A roll that crashed before completing the header leaves a short
	// highest segment with nothing in it; drop it and append to its
	// predecessor.
	if n := len(idxs); n > 0 {
		p := SegmentPath(base, idxs[n-1])
		if info, err := os.Stat(p); err == nil && info.Size() < HeaderSize {
			if err := os.Remove(p); err != nil {
				return fmt.Errorf("%s: remove torn segment: %w", ft.Name, err)
			}
			idxs = idxs[:n-1]
		}
	}
	// A torn or corrupt snapshot (crash racing the rename, disk fault)
	// is ignored: segments are never deleted, so a full rescan recovers
	// everything — the snapshot only ever buys speed.
	var snap *IndexSnapshot[K]
	if data, err := ft.LoadSnapshotFile(SnapshotPath(base)); err == nil && data != nil {
		snap, _ = s.codec.DecodeSnapshot(data)
	}

	if len(idxs) == 0 {
		if snap != nil && len(snap.Segs) > 0 {
			return fmt.Errorf("%s: snapshot covers %d segments but none exist on disk", ft.Name, len(snap.Segs))
		}
		seg, err := s.createSegment(1, 1)
		if err != nil {
			return err
		}
		s.segs = []*segment{seg}
		s.active = seg
		s.nextGen = 1
		s.rec.SegmentsOnDisk = 1
		return nil
	}
	for i, idx := range idxs {
		if idx != uint64(i+1) {
			return fmt.Errorf("%s: segment %06d missing (found %06d): data may be lost", ft.Name, i+1, idx)
		}
	}
	if snap != nil && len(snap.Segs) > len(idxs) {
		return fmt.Errorf("%s: snapshot covers %d segments, only %d exist: data may be lost",
			ft.Name, len(snap.Segs), len(idxs))
	}

	for _, idx := range idxs {
		p := SegmentPath(base, idx)
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("%s: open segment: %w", ft.Name, err)
		}
		gen, err := ft.ReadHeader(f, p)
		if err == nil {
			var info os.FileInfo
			if info, err = f.Stat(); err == nil {
				seg := &segment{idx: uint32(idx), f: f, gen: gen}
				seg.size.Store(info.Size())
				s.segs = append(s.segs, seg)
				s.nextGen = max(s.nextGen, gen)
				continue
			}
		}
		f.Close()
		return err
	}
	s.rec.SegmentsOnDisk = len(idxs)

	// Seed the index from the snapshot where the generations still
	// match; a mismatch means a compaction rewrote that segment after the
	// snapshot (its offsets are stale) and it joins the rescan.
	highest := uint32(len(idxs))
	stale := make(map[uint32]bool)
	var rescan []uint32
	if snap != nil {
		s.rec.SnapshotLoaded = true
		for i, sm := range snap.Segs {
			if idx := uint32(i + 1); s.seg(idx).gen != sm.Gen {
				stale[idx] = true
				rescan = append(rescan, idx)
			}
		}
		for _, e := range snap.Entries {
			if stale[e.Seg] {
				continue
			}
			seg := s.seg(e.Seg)
			if e.Off+int64(e.Len) > seg.size.Load() {
				return fmt.Errorf("%s: snapshot entry for %s beyond segment %06d", ft.Name, s.codec.Format(e.Key), e.Seg)
			}
			s.index[e.Key] = e.Entry
			seg.liveBytes += s.framedLen(e.Key, e.Len)
			s.bodyBytes += uint64(e.Len)
			s.rec.SnapshotKeys++
		}
		// The snapshot carries each covered segment's tombstone bytes, so
		// the compactor's reclaim estimate matches the pre-restart one.
		// Stale segments recount during their rescan, and so does the
		// highest, which is always rescanned below.
		for i, sm := range snap.Segs {
			if idx := uint32(i + 1); !stale[idx] && idx != highest {
				s.seg(idx).tombBytes = sm.Tomb
			}
		}
		for idx := uint32(len(snap.Segs) + 1); idx <= highest; idx++ {
			rescan = append(rescan, idx)
		}
		// The highest segment is rescanned even when the snapshot covers
		// it: a torn roll can demote the active segment back into the
		// covered range, after which post-snapshot records append there —
		// and a torn tail must be truncated before new appends land behind
		// it. Duplicate puts are skipped, so re-visiting records the
		// snapshot already indexed is a no-op.
		if len(rescan) == 0 || rescan[len(rescan)-1] != highest {
			rescan = append(rescan, highest)
		}
	} else {
		for idx := uint32(1); idx <= highest; idx++ {
			rescan = append(rescan, idx)
		}
	}
	s.rec.StaleRescanned = len(stale)

	// Rescan in index order — the chronological write order, since
	// records never move between segments. dead remembers tombstones seen
	// in this pass so a put can never resurrect a key whose tombstone sits
	// in an earlier rescanned segment (keys are never reused).
	dead := make(map[K]bool)
	for _, idx := range rescan {
		seg := s.seg(idx)
		size, err := s.scan(seg.f, idx, idx == highest, func(r scanned[K]) error {
			s.rec.RecordsReplayed++
			switch r.Kind {
			case RecTomb:
				seg.tombBytes += r.frameLen()
				dead[r.Key] = true
				s.dropLocked(r.Key)
			case RecPut:
				if _, dup := s.index[r.Key]; dup || dead[r.Key] {
					return nil // duplicate record (first wins) or deleted key
				}
				s.index[r.Key] = Entry{Seg: idx, Off: r.bodyOff, Len: uint32(len(r.Body))}
				seg.liveBytes += r.frameLen()
				s.bodyBytes += uint64(len(r.Body))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if size < seg.size.Load() {
			// A torn tail was truncated; the truncate must be durable
			// before new records append at the cut, or a crash could
			// resurrect torn bytes beneath valid ones.
			if err := seg.f.Sync(); err != nil {
				return fmt.Errorf("%s: sync truncated segment: %w", ft.Name, err)
			}
		}
		seg.size.Store(size)
		s.rec.SegmentsRescanned++
	}
	s.active = s.seg(highest)
	return nil
}

// scanned is one record located by scan.
type scanned[K comparable] struct {
	Record[K]
	payload []byte
	bodyOff int64 // file offset of the body
}

// frameLen is the record's on-disk size.
func (r *scanned[K]) frameLen() int64 { return int64(FrameHeaderSize + len(r.payload)) }

// scan decodes every record of segment idx (see Format.Scan for the
// torn-tail rule) and returns the file size after any truncation.
func (s *Keyed[K]) scan(f *os.File, idx uint32, allowTorn bool, visit func(scanned[K]) error) (int64, error) {
	path := SegmentPath(s.base, uint64(idx))
	return s.ft.Scan(f, path, allowTorn, func(payload []byte, payloadOff int64) error {
		rec, err := s.codec.DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("%s: %s at offset %d: %w", s.ft.Name, path, payloadOff-FrameHeaderSize, err)
		}
		return visit(scanned[K]{Record: rec, payload: payload, bodyOff: payloadOff + int64(len(payload)-len(rec.Body))})
	})
}

// dropLocked removes k from the index, adjusting the accounting. Called
// with logMu held (or during single-threaded recovery).
func (s *Keyed[K]) dropLocked(k K) {
	e, ok := s.index[k]
	if !ok {
		return
	}
	delete(s.index, k)
	s.seg(e.Seg).liveBytes -= s.framedLen(k, e.Len)
	s.bodyBytes -= uint64(e.Len)
}

// createSegment creates and opens a fresh segment file.
//
//blobseer:seglog keyed-create-segment
func (s *Keyed[K]) createSegment(idx uint32, gen uint64) (*segment, error) {
	f, err := os.OpenFile(SegmentPath(s.base, uint64(idx)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: create segment: %w", s.ft.Name, err)
	}
	if err := s.ft.WriteHeader(f, gen); err != nil {
		f.Close()
		return nil, err
	}
	if s.opts.Sync {
		// The header and directory entry must be durable before any
		// record commits into the new segment, or a crash could lose a
		// whole synced segment while keeping its successor.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: sync segment header: %w", s.ft.Name, err)
		}
		if err := SyncDir(filepath.Dir(s.base)); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: sync dir: %w", s.ft.Name, err)
		}
	}
	seg := &segment{idx: idx, f: f, gen: gen}
	seg.size.Store(HeaderSize)
	return seg, nil
}

// rollLocked seals the active segment and opens the next one. Called
// with logMu held and no commit in flight: by the committer after its
// batch, or by a capture holding cutMu exclusively. Without Sync the
// seal fsyncs the segment and the directory: recovery tolerates a torn
// tail only in the highest segment, so a sealed segment — and its
// directory entry, which must not vanish while a successor survives —
// has to outlive any crash from here on. With Sync every record and
// every created segment is already durable. The sealed segment's file
// stays open: it still serves reads and rewrites.
//
//blobseer:seglog keyed-roll
func (s *Keyed[K]) rollLocked() error {
	if !s.opts.Sync {
		if err := s.active.f.Sync(); err != nil {
			return fmt.Errorf("%s: seal segment: %w", s.ft.Name, err)
		}
		s.syncs.Add(1)
		if err := SyncDir(filepath.Dir(s.base)); err != nil {
			return fmt.Errorf("%s: sync dir before roll: %w", s.ft.Name, err)
		}
	}
	seg, err := s.createSegment(s.active.idx+1, s.nextGen+1)
	if err != nil {
		return err
	}
	s.nextGen++
	s.segs = append(s.segs, seg)
	s.active = seg
	return nil
}

// newAppend frames one record straight into its own buffer: kind, key
// and body are encoded after the frame header, which is then sealed, so
// the body is copied exactly once.
func (s *Keyed[K]) newAppend(kind byte, k K, body []byte) *Append[K] {
	frame := make([]byte, FrameHeaderSize, FrameHeaderSize+s.codec.payloadLen(k, body))
	frame = s.codec.appendPayload(frame, kind, k, body)
	s.ft.sealFrame(frame)
	return &Append[K]{frame: frame, put: kind == RecPut, key: k, bodyLen: uint32(len(body)), cell: NewCell()}
}

// Put durably appends a put record (sharing the write+fsync with
// concurrent appenders unless Serial) and then indexes k. Bodies are
// immutable: putting a key already indexed is a no-op.
func (s *Keyed[K]) Put(k K, body []byte) error {
	s.logMu.Lock()
	_, dup := s.index[k]
	closed := s.closed
	s.logMu.Unlock()
	if closed {
		return ErrClosed
	}
	if dup {
		return nil
	}
	return s.comm.Append(s.newAppend(RecPut, k, body))
}

// Delete durably appends a tombstone and drops k from the index, making
// its bytes reclaimable by compaction. Deleting an unknown key is a
// no-op.
func (s *Keyed[K]) Delete(k K) error {
	if !s.Has(k) {
		return nil
	}
	return s.comm.Append(s.newAppend(RecTomb, k, nil))
}

// EnqueueDelete queues one tombstone without waiting for durability —
// phase one of a two-phase append, so a caller deleting many keys
// shares fsyncs across them. Every successfully enqueued record MUST be
// passed to Await, even on error paths: the first enqueue may make its
// owner the batch leader, and an unawaited leader stalls the queue.
func (s *Keyed[K]) EnqueueDelete(k K) (*Append[K], error) {
	a := s.newAppend(RecTomb, k, nil)
	if err := s.comm.Enqueue(a); err != nil {
		return nil, err
	}
	return a, nil
}

// Await parks until an enqueued record's batch is durable — phase two.
func (s *Keyed[K]) Await(a *Append[K]) error { return s.comm.Await(a) }

// commit appends the batch contiguously to the active segment with a
// single write and at most one fsync, and stamps each record with where
// its body landed. Only the exclusive committer runs it, holding cutMu
// shared, so the active segment cannot roll underneath. On error nothing
// is applied.
func (s *Keyed[K]) commit(batch []*Append[K]) error {
	if s.Hooks.Commit != nil {
		s.Hooks.Commit(len(batch))
	}
	s.appends.Add(uint64(len(batch)))
	seg := s.active
	base := seg.size.Load()
	out := batch[0].frame
	if len(batch) > 1 {
		n := 0
		for _, a := range batch {
			n += len(a.frame)
		}
		out = make([]byte, 0, n)
		for _, a := range batch {
			out = append(out, a.frame...)
		}
	}
	off := base
	for _, a := range batch {
		off += int64(len(a.frame))
		a.seg = seg.idx
		a.bodyOff = off - int64(a.bodyLen)
	}
	if _, err := seg.f.WriteAt(out, base); err != nil {
		return fmt.Errorf("%s: append: %w", s.ft.Name, err)
	}
	if s.opts.Sync {
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("%s: fsync: %w", s.ft.Name, err)
		}
		s.syncs.Add(1)
	}
	seg.size.Store(off)
	return nil
}

// apply indexes a durable batch: puts insert (the first of duplicates
// wins, as in recovery), tombstones drop. Called with logMu held.
func (s *Keyed[K]) apply(batch []*Append[K]) {
	nudge := false
	for _, a := range batch {
		seg := s.seg(a.seg)
		if !a.put {
			s.dropLocked(a.key)
			seg.tombBytes += int64(len(a.frame))
			nudge = nudge || s.opts.CompactRatio > 0
		} else if _, dup := s.index[a.key]; !dup {
			s.index[a.key] = Entry{Seg: a.seg, Off: a.bodyOff, Len: a.bodyLen}
			seg.liveBytes += int64(len(a.frame))
			s.bodyBytes += uint64(a.bodyLen)
		}
		s.track.Mark(a.key)
	}
	events := s.track.AddEvents(len(batch))
	if n := s.opts.SnapshotEvery; n > 0 && events >= uint64(n) {
		nudge = true
	}
	if nudge {
		s.maint.Nudge()
	}
}

// Read returns part of k's body: span maps the body length to the
// [off, off+n) range wanted (or an error), so range rules stay the
// caller's. ok is false when k is not indexed.
func (s *Keyed[K]) Read(k K, span func(bodyLen uint32) (off, n uint32, err error)) (data []byte, ok bool, err error) {
	s.logMu.Lock()
	closed := s.closed
	e, ok := s.index[k]
	var seg *segment
	if ok {
		seg = s.seg(e.Seg)
	}
	s.logMu.Unlock()
	if closed {
		return nil, false, ErrClosed
	}
	if !ok {
		return nil, false, nil
	}
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	// Re-fetch under the segment lock: a compaction may have moved the
	// body meanwhile, and it swaps the file handle and retargets entries
	// as one unit under seg.mu. Records never move between segments.
	s.logMu.Lock()
	e, ok = s.index[k]
	s.logMu.Unlock()
	if !ok {
		return nil, false, nil
	}
	off, n, err := span(e.Len)
	if err != nil {
		return nil, true, err
	}
	out := make([]byte, n)
	if n > 0 {
		if _, err := seg.f.ReadAt(out, e.Off+int64(off)); err != nil {
			if errors.Is(err, fs.ErrClosed) {
				return nil, true, ErrClosed // lost the race with Close
			}
			return nil, true, fmt.Errorf("%s: read %s: %w", s.ft.Name, s.codec.Format(k), err)
		}
	}
	return out, true, nil
}

// Range calls fn with every live key and its whole body, in no
// particular order.
func (s *Keyed[K]) Range(fn func(k K, body []byte) error) error {
	s.logMu.Lock()
	keys := make([]K, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.logMu.Unlock()
	whole := func(n uint32) (uint32, uint32, error) { return 0, n, nil }
	for _, k := range keys {
		body, ok, err := s.Read(k, whole)
		if err != nil {
			return err
		}
		if ok {
			if err := fn(k, body); err != nil {
				return err
			}
		}
	}
	return nil
}

// Has reports whether k is indexed.
func (s *Keyed[K]) Has(k K) bool {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	_, ok := s.index[k]
	return ok
}

// Stats returns the number of live keys and their summed body length.
func (s *Keyed[K]) Stats() (keys, bytes uint64) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return uint64(len(s.index)), s.bodyBytes
}

// WriteStats reports records committed and record-data fsyncs issued
// since open. Group commit shows up as syncs < appends.
func (s *Keyed[K]) WriteStats() (appends, syncs uint64) {
	return s.appends.Load(), s.syncs.Load()
}

// LogBytes reports the on-disk footprint: the summed size of every
// segment file. Compaction shrinks it.
func (s *Keyed[K]) LogBytes() int64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	var n int64
	for _, seg := range s.segs {
		n += seg.size.Load()
	}
	return n
}

// RecoveryStats reports what this open did.
func (s *Keyed[K]) RecoveryStats() RecoveryStats { return s.rec }

// QueueLen reports how many appenders are queued behind the committer.
func (s *Keyed[K]) QueueLen() int {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.comm.QueueLenLocked()
}

// Close is idempotent: queued appenders fail with ErrClosed, in-flight
// maintenance and any in-flight batch finish first, and every segment is
// fsynced and closed — so with Sync off a clean shutdown still loses
// nothing.
func (s *Keyed[K]) Close() error {
	s.logMu.Lock()
	if s.closed {
		s.logMu.Unlock()
		return nil
	}
	s.closed = true
	s.comm.FailQueuedLocked(ErrClosed)
	s.logMu.Unlock()
	s.maint.Stop()
	// Barrier: an in-flight snapshot or compaction finishes (its output
	// is valid and worth keeping), and so does an in-flight batch, before
	// the files close under them.
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	s.logMu.Lock()
	segs := s.segs
	s.logMu.Unlock()
	var err error
	for _, seg := range segs {
		seg.mu.Lock()
		if serr := seg.f.Sync(); serr != nil && err == nil {
			err = fmt.Errorf("%s: sync segment: %w", s.ft.Name, serr)
		}
		if cerr := seg.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		seg.mu.Unlock()
	}
	if derr := SyncDir(filepath.Dir(s.base)); derr != nil && err == nil {
		err = derr
	}
	return err
}

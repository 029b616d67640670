package seglog

import (
	"errors"
	"fmt"
	"os"
)

// Maintenance of a Keyed store: the snapshotter serializes the index at
// a segment boundary so reopen replays only the tail, and the compactor
// rewrites sealed segments whose live-byte ratio fell below the
// threshold, dropping records of deleted keys and duplicate puts. See
// the Keyed doc for the crash-consistency invariants.

// Maintenance fault points, in execution order.
const (
	CrashSnapBegin         = "snap-begin"          // before anything happened
	CrashSnapCaptured      = "snap-captured"       // index captured, nothing on disk yet
	CrashSnapTmpWritten    = "snap-tmp-written"    // tmp snapshot fully written (+synced)
	CrashSnapRenamed       = "snap-renamed"        // snapshot live
	CrashCompactTmpWritten = "compact-tmp-written" // rewrite tmp fully written+synced
	CrashCompactRenamed    = "compact-renamed"     // rewrite live, index not yet updated
	CrashCompactApplied    = "compact-applied"     // index updated, snapshot not yet rewritten
)

// CrashPoints lists every maintenance fault point in order.
var CrashPoints = []string{
	CrashSnapBegin, CrashSnapCaptured, CrashSnapTmpWritten, CrashSnapRenamed,
	CrashCompactTmpWritten, CrashCompactRenamed, CrashCompactApplied,
}

// crash fires the fault-injection hook; a non-nil return aborts the
// pass exactly as a process death at that point would — nothing needs
// unwinding, recovery handles every prefix.
func (s *Keyed[K]) crash(point string) error {
	if s.Hooks.Crash == nil {
		return nil
	}
	return s.Hooks.Crash(point)
}

// MaintainPass is one wake-up of the background maintainer: a snapshot
// when the countdown reached SnapshotEvery, then a compaction when
// CompactRatio is set. It reports false once the store is closed.
func (s *Keyed[K]) MaintainPass() bool {
	s.logMu.Lock()
	closed := s.closed
	s.logMu.Unlock()
	if closed {
		return false
	}
	if n := s.opts.SnapshotEvery; n > 0 && s.track.Events() >= uint64(n) {
		s.Snapshot()
	}
	if s.opts.CompactRatio > 0 {
		s.Compact()
	}
	return true
}

// SnapshotEvents reports the auto-snapshot countdown: records logged
// since the last successfully published snapshot.
func (s *Keyed[K]) SnapshotEvents() uint64 { return s.track.Events() }

// Snapshots reports how many index snapshots completed since open.
func (s *Keyed[K]) Snapshots() uint64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.snapRuns
}

// Compactions reports how many segment rewrites completed since open.
func (s *Keyed[K]) Compactions() uint64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.compRuns
}

// Snapshot serializes the index into an atomically renamed snapshot
// file, so the next reopen replays only records logged after this call.
// It is safe to call concurrently with traffic (the stop-the-world
// portion is a segment roll plus resolving the dirty keys) and
// serialized against compaction.
func (s *Keyed[K]) Snapshot() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.snapshotLocked()
}

func (s *Keyed[K]) snapshotLocked() error {
	if err := s.crash(CrashSnapBegin); err != nil {
		return err
	}
	snap, cut, err := s.capture()
	if err != nil {
		return err
	}
	if err := s.crash(CrashSnapCaptured); err != nil {
		cut.Abort()
		return err
	}
	if err := s.ft.PublishSnapshot(s.base, s.codec.EncodeSnapshot(snap), s.opts.Sync,
		func() error { return s.crash(CrashSnapTmpWritten) },
		func() error { return s.crash(CrashSnapRenamed) },
	); err != nil {
		// The countdown and dirty set survive (Capture.Abort), so the next
		// maintenance pass retries at once.
		cut.Abort()
		return err
	}
	// Only now — the snapshot is live — consume the countdown and adopt
	// the merged entries as the next capture's baseline.
	cut.Commit()
	s.logMu.Lock()
	s.snapRuns++
	s.logMu.Unlock()
	return nil
}

// capture rolls the log to a fresh segment and captures the index at
// the cut. It holds cutMu exclusively, which excludes the exclusive
// committer, so no commit is in flight during the roll and the capture
// is exactly the state the segments below the cut replay to; the
// per-segment counters read are exact for the same reason, and
// compaction (the only other writer of gen and the counters) is
// excluded by maintMu. The returned cut must be Committed after a
// successful publish or Aborted on any error.
//
//blobseer:seglog keyed-capture
func (s *Keyed[K]) capture() (*IndexSnapshot[K], *Capture[K, Entry], error) {
	s.cutMu.Lock()
	snap, cut, err := s.captureLocked()
	s.cutMu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	// The merge is O(total keys) of map work, but the stop-the-world part
	// above was O(dirty keys): it runs after cutMu is released.
	merged := cut.Merged()
	snap.Entries = make([]SnapEntry[K], 0, len(merged))
	for k, e := range merged {
		snap.Entries = append(snap.Entries, SnapEntry[K]{Key: k, Entry: e})
	}
	return snap, cut, nil
}

func (s *Keyed[K]) captureLocked() (*IndexSnapshot[K], *Capture[K, Entry], error) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	if s.active.size.Load() > HeaderSize {
		if err := s.rollLocked(); err != nil {
			return nil, nil, err
		}
	}
	covered := s.active.idx - 1
	snap := &IndexSnapshot[K]{IndexMeta: IndexMeta{Segs: make([]SegMeta, covered)}}
	for i, seg := range s.segs[:covered] {
		snap.Segs[i] = SegMeta{Gen: seg.gen, Live: seg.liveBytes, Tomb: seg.tombBytes}
	}
	// An index entry above the cut would mean a record applied without
	// the committer holding the cut shared — state corruption. Publishing
	// a snapshot that silently omits it would cement the damage, so fail
	// the capture loudly instead.
	uncovered := func(k K, e Entry) error {
		return fmt.Errorf("%s: snapshot capture: %s indexed in uncovered segment %d (cut at %d)",
			s.ft.Name, s.codec.Format(k), e.Seg, covered)
	}
	cut := s.track.Begin()
	if cut.Full() {
		// First capture since open: seed from a full index scan.
		seed := make(map[K]Entry, len(s.index))
		for k, e := range s.index {
			if e.Seg > covered {
				cut.Abort()
				return nil, nil, uncovered(k, e)
			}
			seed[k] = e
		}
		cut.Seed(seed)
	} else {
		for k := range cut.Dirty() {
			e, ok := s.index[k]
			if ok && e.Seg > covered {
				cut.Abort()
				return nil, nil, uncovered(k, e)
			}
			cut.Resolve(k, e, ok)
		}
	}
	return snap, cut, nil
}

// Compact rewrites every sealed segment whose live-byte ratio is below
// CompactRatio (or, when it is zero, below 1 — on-demand compaction
// reclaims whatever it can), then writes a fresh index snapshot so the
// rewrites are covered. Every indexed key is preserved byte-identically;
// only records of deleted keys, duplicate puts, and tombstones with no
// earlier put left to suppress are dropped.
func (s *Keyed[K]) Compact() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	ratio := s.opts.CompactRatio
	if ratio <= 0 {
		ratio = 1
	}
	rewrote := 0
	for {
		victim := s.pickVictim(ratio)
		if victim == nil {
			break
		}
		if err := s.rewriteSegment(victim); err != nil {
			return err
		}
		rewrote++
	}
	if rewrote > 0 {
		// Cover the rewrites so reopen trusts the new offsets instead of
		// taking the generation-mismatch rescan path.
		return s.snapshotLocked()
	}
	return nil
}

// pickVictim returns the sealed segment with the most reclaimable bytes
// among those whose live ratio is below the threshold — or, when no
// bytes are reclaimable anywhere, the lowest hygiene-flagged segment
// (an earlier rewrite dropped a put, so tombstones there may now be
// droppable). A freshly rewritten segment estimates zero reclaimable
// bytes and carries no flag, so compaction always terminates.
//
//blobseer:seglog keyed-pick-victim
func (s *Keyed[K]) pickVictim(ratio float64) *segment {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return nil
	}
	sealed := s.segs[:s.active.idx-1] // never the active segment
	var best *segment
	var bestReclaim int64
	for _, seg := range sealed {
		payload := seg.size.Load() - HeaderSize
		if payload <= 0 {
			continue
		}
		reclaim := payload - seg.liveBytes - seg.tombBytes
		if reclaim > bestReclaim && float64(seg.liveBytes)/float64(payload) < ratio {
			best, bestReclaim = seg, reclaim
		}
	}
	if best != nil {
		return best
	}
	for _, seg := range sealed {
		if seg.hygiene {
			if seg.size.Load() > HeaderSize {
				return seg
			}
			seg.hygiene = false
		}
	}
	return nil
}

// errHygieneDone stops the tombstone-hygiene sweep early once every
// tombstone in the victim is known to be needed.
var errHygieneDone = errors.New("seglog: hygiene scan complete")

// neededTombs resolves the hygiene rule (hygiene.go) for one victim:
// which of its tombstones still have a put record in some earlier
// segment to suppress. Earlier segments are sealed and maintMu excludes
// any other rewrite (and Close's file sweep), so the handles read under
// logMu stay valid for the whole sweep. Fixed-size keys are read from
// each record's prefix alone, never the bodies.
func (s *Keyed[K]) neededTombs(victim *segment, tombs map[K]bool) (map[K]bool, error) {
	s.logMu.Lock()
	earlier := make([]*os.File, 0, victim.idx-1)
	for _, seg := range s.segs[:victim.idx-1] {
		earlier = append(earlier, seg.f)
	}
	s.logMu.Unlock()
	return FilterTombs(tombs, func(observe func(K) bool) error {
		visit := func(p []byte) error {
			if len(p) == 0 || p[0] != RecPut {
				return nil
			}
			if k, _, ok := s.codec.Parse(p[1:]); ok && !observe(k) {
				return errHygieneDone
			}
			return nil // a corrupt key is the full decode path's to report
		}
		for i, f := range earlier {
			path := SegmentPath(s.base, uint64(i+1))
			var err error
			if s.codec.Fixed {
				err = s.ft.ScanPrefix(f, path, 1+s.codec.MinLen, func(p []byte, _ uint32) error { return visit(p) })
			} else {
				_, err = s.ft.Scan(f, path, false, func(p []byte, _ int64) error { return visit(p) })
			}
			if errors.Is(err, errHygieneDone) {
				return nil
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// rewriteSegment compacts one sealed segment in place: the records
// still live — puts the index points at, and tombstones some earlier
// segment still holds a put for — are written to a tmp file under a
// fresh generation, fsynced, renamed over the segment (see SegmentWriter
// for why the fsync is unconditional), and the index entries are
// retargeted under the segment lock. Readers mid-pread keep the old
// handle; a Delete racing the rewrite is re-checked at retarget time,
// and its tombstone sits in a later segment than anything kept here.
//
//blobseer:seglog keyed-rewrite
func (s *Keyed[K]) rewriteSegment(victim *segment) error {
	// The victim's handle is stable: only compaction swaps it, and
	// maintMu serializes compaction.
	s.logMu.Lock()
	if s.closed {
		s.logMu.Unlock()
		return ErrClosed
	}
	s.nextGen++
	newGen := s.nextGen
	f := victim.f
	s.logMu.Unlock()

	type kept struct {
		payload []byte
		put     bool
		key     K
		head    int64 // body offset within the frame
		oldOff  int64 // old body offset (puts; the index match key)
	}
	var keep []kept
	tombs := make(map[K]bool)
	if _, err := s.scan(f, victim.idx, false, func(r scanned[K]) error {
		head := r.frameLen() - int64(len(r.Body))
		keep = append(keep, kept{payload: r.payload, put: r.Kind == RecPut, key: r.Key, head: head, oldOff: r.bodyOff})
		if r.Kind == RecTomb {
			tombs[r.Key] = true
		}
		return nil
	}); err != nil {
		return err
	}
	// Keep only the puts the index points at: duplicates and deleted keys
	// are dropped.
	droppedPut := false
	live := keep[:0]
	s.logMu.Lock()
	for _, k := range keep {
		if k.put {
			if e, ok := s.index[k.key]; !ok || e.Seg != victim.idx || e.Off != k.oldOff {
				droppedPut = true
				continue
			}
		}
		live = append(live, k)
	}
	s.logMu.Unlock()
	keep = live
	if len(tombs) > 0 {
		needed, err := s.neededTombs(victim, tombs)
		if err != nil {
			return err
		}
		live := keep[:0]
		for _, k := range keep {
			if k.put || needed[k.key] {
				live = append(live, k)
			}
		}
		keep = live
	}

	w, err := s.ft.NewSegmentWriter(CompactTmpPath(s.base), newGen)
	if err != nil {
		return err
	}
	newOff := make([]int64, len(keep))
	var tombBytes int64
	for i, k := range keep {
		start, err := w.Append(k.payload)
		if err != nil {
			w.Abort()
			return err
		}
		newOff[i] = start + k.head
		if !k.put {
			tombBytes += int64(FrameHeaderSize + len(k.payload))
		}
	}
	if err := w.Commit(SegmentPath(s.base, uint64(victim.idx)),
		func() error { return s.crash(CrashCompactTmpWritten) },
		func() error { return s.crash(CrashCompactRenamed) },
	); err != nil {
		return err
	}

	// Swap the handle and retarget the index as one unit under the
	// segment lock; Read re-fetches entries under it.
	victim.mu.Lock()
	s.logMu.Lock()
	old := victim.f
	victim.f = w.File()
	victim.gen = newGen
	victim.size.Store(w.Size())
	var liveBytes int64
	for i, k := range keep {
		if !k.put {
			continue
		}
		if e, ok := s.index[k.key]; ok && e.Seg == victim.idx && e.Off == k.oldOff {
			e.Off = newOff[i]
			s.index[k.key] = e
			liveBytes += int64(FrameHeaderSize + len(k.payload))
			// The entry moved: the next incremental snapshot must carry
			// the new offset, or its baseline would keep pointing at the
			// old one under a matching generation.
			s.track.Mark(k.key)
		}
	}
	victim.liveBytes = liveBytes
	victim.tombBytes = tombBytes
	victim.hygiene = false
	if droppedPut {
		// The dropped puts may have been the last reason tombstones in
		// later segments existed; flag them so this compaction pass
		// re-evaluates the rule there too. Flags are only ever set when a
		// record was actually dropped, so the cascade terminates.
		for _, seg := range s.segs[victim.idx:] {
			if seg.tombBytes > 0 {
				seg.hygiene = true
			}
		}
	}
	s.compRuns++
	s.logMu.Unlock()
	victim.mu.Unlock()
	old.Close()
	return s.crash(CrashCompactApplied)
}

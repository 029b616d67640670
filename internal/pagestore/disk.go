package pagestore

import (
	"bytes"
	"fmt"

	"blobseer/internal/seglog"
	"blobseer/internal/wire"
)

// Disk is the durable Store: the page store's instantiation of
// seglog.Keyed, a segmented, CRC-framed log keyed by page id with group
// commit, index snapshots for bounded reopen and a compactor that
// rewrites segments Deleted pages emptied. This file supplies only the
// page store's on-disk dialect and its ranged reads. A page's bytes are
// dropped only after an explicit Delete, whose caller (a garbage
// collector walking version metadata) has proven the page unreachable
// from every retained version.
//
// On disk: segments <base>.000001, ... with the header
//
//	uint32 0xB10B5E60 | uint32 1 | uint64 generation
//
// carrying records framed as
//
//	uint32 0xB10B5EE5 | uint32 payloadLen | uint32 crc32(payload) | payload
//
// whose payload is one kind byte (put 1, tombstone 2), the 16-byte page
// id, and for puts the page body; and the index snapshot <base>.snapshot
// (envelope magic 0xB10B55A9) whose entries encode the page id raw.
type Disk struct {
	*seglog.Keyed[wire.PageID]
}

// DiskOptions tunes a Disk store. The zero value is unsynced serial
// appends, 64 MB segments, and no automatic snapshots or compaction.
type DiskOptions struct {
	// Sync forces page records to disk before Put returns. Slower, but
	// a crash loses at most in-flight pages instead of the OS
	// write-back window. Pair with GroupCommit so concurrent writers
	// share fsyncs.
	Sync bool
	// GroupCommit coalesces concurrent Puts/Deletes into one write (+ at
	// most one fsync). Off, every record performs its own write (+fsync
	// when Sync) under the writer lock — the ablation baseline.
	GroupCommit bool
	// SegmentBytes rolls the log into a fresh segment file once the
	// active one exceeds this many bytes (default 64 MB). Compaction
	// rewrites whole sealed segments, so smaller segments reclaim at a
	// finer grain for more files.
	SegmentBytes int64
	// SnapshotEvery, when positive, writes an index snapshot
	// automatically after that many appended records, bounding reopen
	// replay by the interval. Snapshot remains available on demand.
	SnapshotEvery int
	// CompactRatio, when positive, makes the background compactor
	// rewrite any sealed segment whose live-byte ratio falls below this
	// threshold (0 < ratio < 1), dropping records of Deleted pages.
	// Compact remains available on demand.
	CompactRatio float64
}

// RecoveryStats describes what one OpenDisk did.
type RecoveryStats = seglog.RecoveryStats

// pageFmt is the page store's seglog dialect.
var pageFmt = &seglog.Format{
	Name:      "pagestore",
	RecMagic:  0xB10B5EE5,
	SegMagic:  0xB10B5E60,
	SegFormat: 1,
	SnapMagic: 0xB10B55A9,
}

// pageKeys encodes page ids as their 16 raw bytes, ordered bytewise.
var pageKeys = &seglog.KeyCodec[wire.PageID]{
	MinLen: 16,
	Fixed:  true,
	Len:    func(wire.PageID) int { return 16 },
	Append: func(dst []byte, id wire.PageID) []byte { return append(dst, id[:]...) },
	Parse: func(src []byte) (id wire.PageID, n int, ok bool) {
		if len(src) < 16 {
			return id, 0, false
		}
		copy(id[:], src)
		return id, 16, true
	},
	Less:   func(a, b wire.PageID) bool { return bytes.Compare(a[:], b[:]) < 0 },
	Format: func(id wire.PageID) string { return fmt.Sprintf("page %v", id) },
}

// OpenDisk opens (creating if needed) the segmented page store rooted
// at path and rebuilds the index (see seglog.OpenKeyed).
func OpenDisk(path string, opts DiskOptions) (*Disk, error) {
	s, err := seglog.OpenKeyed(path, pageFmt, pageKeys, seglog.KeyedOptions{
		Sync:          opts.Sync,
		Serial:        !opts.GroupCommit,
		SegmentBytes:  opts.SegmentBytes,
		SnapshotEvery: opts.SnapshotEvery,
		CompactRatio:  opts.CompactRatio,
	})
	if err != nil {
		return nil, err
	}
	s.Start()
	return &Disk{s}, nil
}

// Get implements Store.
func (d *Disk) Get(id wire.PageID, off, length uint32) ([]byte, error) {
	data, ok, err := d.Read(id, func(size uint32) (uint32, uint32, error) {
		return pageSpan(size, off, length)
	})
	if err == nil && !ok {
		err = fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	return data, err
}

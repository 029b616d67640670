package dht

import (
	"encoding/binary"
	"fmt"

	"blobseer/internal/rpc"
	"blobseer/internal/seglog"
	"blobseer/internal/transport"
	"blobseer/internal/vclock"
	"blobseer/internal/wire"
)

// Durable metadata nodes persist every pair to the DHT's instantiation
// of seglog.Keyed — a segmented, CRC-framed log keyed by node key, with
// group commit, index snapshots and compaction — and reload every pair
// on start, so the segment trees survive a restart of the whole cluster
// (extension: the paper's metadata lived in RAM and node volatility was
// future work). Pairs are deleted only by the garbage collector, after
// it proved them unreachable from every retained snapshot and branch.
// This file supplies only the log's on-disk dialect and the
// load-all-pairs-at-open path.
//
// On disk: segments <base>.000001, ... with the header
//
//	uint32 0xD47A5E60 | uint32 1 | uint64 generation
//
// carrying records framed as
//
//	uint32 0xD47A5EE5 | uint32 payloadLen | uint32 crc32(payload) | payload
//
// whose payload is one kind byte (put 1, delete 2), the key as
// uint32 length + bytes, and for puts the value; and the index snapshot
// <base>.snapshot (envelope magic 0xD47A55A9) whose entries encode the
// key the same way.

// LogOptions tunes a durable node's metadata log. The zero value is
// unsynced group-committed appends, 64 MB segments, and no automatic
// snapshots or compaction.
type LogOptions struct {
	// Sync forces records to disk before a put or delete is
	// acknowledged. Slower, but a crash loses at most in-flight pairs
	// instead of the OS write-back window.
	Sync bool
	// SegmentBytes rolls the log into a fresh segment file once the
	// active one exceeds this many bytes (default 64 MB). Compaction
	// rewrites whole sealed segments, so smaller segments reclaim at a
	// finer grain for more files.
	SegmentBytes int64
	// SnapshotEvery, when positive, writes an index snapshot
	// automatically after that many appended records, bounding reopen
	// replay by the interval.
	SnapshotEvery int
	// CompactRatio, when positive, makes the background compactor
	// rewrite any sealed segment whose live-byte ratio falls below this
	// threshold (0 < ratio < 1), dropping records of deleted pairs.
	// CompactLog remains available on demand.
	CompactRatio float64
}

// metaLog is a durable node's pair log.
type metaLog = seglog.Keyed[string]

// metaFmt is the metadata log's seglog dialect.
var metaFmt = &seglog.Format{
	Name:      "dht",
	RecMagic:  0xD47A5EE5,
	SegMagic:  0xD47A5E60,
	SegFormat: 1,
	SnapMagic: 0xD47A55A9,
}

// metaKeys encodes keys as uint32 length + bytes, ordered bytewise.
var metaKeys = &seglog.KeyCodec[string]{
	MinLen: 4,
	Len:    func(k string) int { return 4 + len(k) },
	Append: func(dst []byte, k string) []byte {
		return append(binary.LittleEndian.AppendUint32(dst, uint32(len(k))), k...)
	},
	Parse: func(src []byte) (string, int, bool) {
		r := wire.NewReader(src)
		k := r.Bytes32()
		if r.Err() != nil {
			return "", 0, false
		}
		return string(k), 4 + len(k), true
	},
	Less:   func(a, b string) bool { return a < b },
	Format: func(k string) string { return fmt.Sprintf("key %x", k) },
}

// openMetaLog opens (creating if needed) the log rooted at path and
// returns it with every recovered pair.
func openMetaLog(path string, opts LogOptions) (*metaLog, [][2][]byte, error) {
	l, err := seglog.OpenKeyed(path, metaFmt, metaKeys, seglog.KeyedOptions{
		Sync:          opts.Sync,
		SegmentBytes:  opts.SegmentBytes,
		SnapshotEvery: opts.SnapshotEvery,
		CompactRatio:  opts.CompactRatio,
	})
	if err != nil {
		return nil, nil, err
	}
	var pairs [][2][]byte
	if err := l.Range(func(k string, v []byte) error {
		pairs = append(pairs, [2][]byte{[]byte(k), v})
		return nil
	}); err != nil {
		l.Close()
		return nil, nil, err
	}
	l.Start()
	return l, pairs, nil
}

// ServeDurableNode starts a metadata provider whose pairs are persisted
// to a segmented log rooted at path and reloaded on start.
func ServeDurableNode(ln transport.Listener, sched vclock.Scheduler, path string, opts LogOptions) (*Node, error) {
	log, pairs, err := openMetaLog(path, opts)
	if err != nil {
		return nil, err
	}
	n := &Node{log: log}
	for i := range n.shards {
		n.shards[i].m = make(map[string][]byte)
	}
	for _, kv := range pairs {
		n.putMem(kv[0], kv[1])
	}
	n.srv = rpc.Serve(ln, sched, n.mux())
	return n, nil
}

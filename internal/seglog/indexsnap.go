package seglog

import (
	"errors"
	"fmt"
	"sort"

	"blobseer/internal/wire"
)

// Index snapshots (the keyed stores' — see keyed.go) serialize the key
// index at a segment boundary: one entry per covered segment, then one
// per live key. The payload, inside the snapshot file envelope:
//
//	uint32 fmt (= 2)
//	uint32 nsegs
//	per segment: uint64 gen | uint64 live | uint64 tomb
//	uint32 nentries
//	per entry:   key | uint32 seg | uint64 off | uint32 len
//
// where key is the store's key encoding (KeyCodec). Format 2 carries
// each covered segment's live/tombstone byte counters, so recovery
// seeds the compactor's accounting exactly instead of undercounting
// tombstone bytes. The encoding is canonical: entries strictly
// ascending by key, counts bounded by the remaining input, no trailing
// bytes — encode∘decode is the identity on valid inputs, which the
// stores' fuzz targets pin.

// indexSnapFmt is the index snapshot format number.
const indexSnapFmt = 2

// SegMeta is one covered segment's entry in an index snapshot.
type SegMeta struct {
	Gen  uint64
	Live int64 // framed bytes of records the index points at
	Tomb int64 // framed bytes of tombstone records
}

// IndexMeta is the covered-segment prefix of an index snapshot.
type IndexMeta struct {
	Segs []SegMeta
}

// EncodeIndexMeta appends the covered-segment prefix to w.
func EncodeIndexMeta(w *wire.Writer, m *IndexMeta) {
	w.Uint32(indexSnapFmt)
	w.Uint32(uint32(len(m.Segs)))
	for _, s := range m.Segs {
		w.Uint64(s.Gen)
		w.Uint64(uint64(s.Live))
		w.Uint64(uint64(s.Tomb))
	}
}

// DecodeIndexMeta parses the covered-segment prefix from r, leaving r
// positioned at the entry section. errTag tags structural errors.
func DecodeIndexMeta(r *wire.Reader, errTag error) (*IndexMeta, error) {
	f := r.Uint32()
	if r.Err() == nil && f != indexSnapFmt {
		return nil, fmt.Errorf("%w: unknown format %d", errTag, f)
	}
	nsegs, err := Count(r, 24, errTag)
	if err != nil {
		return nil, err
	}
	m := &IndexMeta{Segs: make([]SegMeta, 0, nsegs)}
	for i := 0; i < nsegs; i++ {
		s := SegMeta{Gen: r.Uint64(), Live: int64(r.Uint64()), Tomb: int64(r.Uint64())}
		if s.Live < 0 || s.Tomb < 0 {
			return nil, fmt.Errorf("%w: negative segment counter", errTag)
		}
		m.Segs = append(m.Segs, s)
	}
	return m, nil
}

// Count reads a length prefix and bounds it by the bytes that many
// entries of at least elemBytes each would need, so a hostile prefix
// cannot drive a huge allocation.
func Count(r *wire.Reader, elemBytes int, errTag error) (int, error) {
	n := r.Uint32()
	if r.Err() != nil {
		return 0, r.Err()
	}
	if int64(n)*int64(elemBytes) > int64(r.Remaining()) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining input", errTag, n)
	}
	return int(n), nil
}

// Record kinds of a keyed store.
const (
	RecPut  byte = 1 // key and body
	RecTomb byte = 2 // key only: the key was deleted
)

// KeyCodec is what a keyed store's key type brings to the shared core:
// how a key encodes into records and snapshot entries, how it parses
// back from a record prefix, and how keys order in the canonical
// snapshot. A record payload is
//
//	uint8 kind | key | body (puts only)
type KeyCodec[K comparable] struct {
	// MinLen is the smallest encoded key; Fixed says every key encodes
	// to exactly MinLen bytes, which lets the tombstone-hygiene sweep
	// read record prefixes instead of whole records.
	MinLen int
	Fixed  bool
	// Len reports k's encoded size; Append appends its encoding.
	Len    func(k K) int
	Append func(dst []byte, k K) []byte
	// Parse decodes a key from the front of src and reports the bytes it
	// used; ok is false when src holds no complete key.
	Parse func(src []byte) (k K, n int, ok bool)
	// Less is the canonical snapshot order; Format renders a key for
	// error messages.
	Less   func(a, b K) bool
	Format func(k K) string
}

// Record is one decoded log record. Body aliases the decoded payload.
type Record[K comparable] struct {
	Kind byte
	Key  K
	Body []byte // RecPut only
}

// payloadLen is the encoded size of a record payload.
func (c *KeyCodec[K]) payloadLen(k K, body []byte) int { return 1 + c.Len(k) + len(body) }

// appendPayload appends a record payload to dst.
func (c *KeyCodec[K]) appendPayload(dst []byte, kind byte, k K, body []byte) []byte {
	dst = append(dst, kind)
	dst = c.Append(dst, k)
	return append(dst, body...)
}

// EncodeRecord returns r's record payload.
func (c *KeyCodec[K]) EncodeRecord(r Record[K]) []byte {
	return c.appendPayload(make([]byte, 0, c.payloadLen(r.Key, r.Body)), r.Kind, r.Key, r.Body)
}

// DecodeRecord parses a record payload. It never panics on arbitrary
// bytes and the encoding is canonical: a successful decode re-encodes
// to exactly the input.
func (c *KeyCodec[K]) DecodeRecord(payload []byte) (Record[K], error) {
	if len(payload) == 0 {
		return Record[K]{}, errors.New("empty record")
	}
	kind := payload[0]
	if kind != RecPut && kind != RecTomb {
		return Record[K]{}, fmt.Errorf("unknown record kind %d", kind)
	}
	k, n, ok := c.Parse(payload[1:])
	if !ok {
		return Record[K]{}, errors.New("record key truncated")
	}
	rec := Record[K]{Kind: kind, Key: k}
	if body := payload[1+n:]; kind == RecPut {
		rec.Body = body
	} else if len(body) > 0 {
		return Record[K]{}, errors.New("tombstone carries a body")
	}
	return rec, nil
}

// SnapEntry is one live key's location in an index snapshot.
type SnapEntry[K comparable] struct {
	Key K
	Entry
}

// IndexSnapshot is a consistent cut of a keyed store's index. Segments
// 1..len(Segs) are covered: every record in them is reflected in the
// entries, and Segs[i] describes segment i+1 at the cut. Segments above
// the covered range are the tail recovery replays.
type IndexSnapshot[K comparable] struct {
	IndexMeta
	Entries []SnapEntry[K]
}

// ErrSnapshotEncoding tags structurally invalid index snapshots.
var ErrSnapshotEncoding = errors.New("seglog: invalid index snapshot encoding")

// EncodeSnapshot serializes s canonically (it sorts the entries).
func (c *KeyCodec[K]) EncodeSnapshot(s *IndexSnapshot[K]) []byte {
	sort.Slice(s.Entries, func(i, j int) bool { return c.Less(s.Entries[i].Key, s.Entries[j].Key) })
	n := 12 + len(s.Segs)*24
	for _, e := range s.Entries {
		n += c.Len(e.Key) + 16
	}
	w := wire.NewWriter(n)
	EncodeIndexMeta(w, &s.IndexMeta)
	w.Uint32(uint32(len(s.Entries)))
	var key []byte
	for _, e := range s.Entries {
		key = c.Append(key[:0], e.Key)
		w.Raw(key)
		w.Uint32(e.Seg)
		w.Uint64(uint64(e.Off))
		w.Uint32(e.Len)
	}
	return w.Bytes()
}

// DecodeSnapshot parses an index snapshot payload. It never panics on
// arbitrary bytes and rejects non-canonical input — unsorted or
// duplicate keys, entries outside the covered segments or before the
// first record's body, trailing bytes — so a successful decode
// re-encodes to exactly the input.
func (c *KeyCodec[K]) DecodeSnapshot(data []byte) (*IndexSnapshot[K], error) {
	r := wire.NewReader(data)
	meta, err := DecodeIndexMeta(r, ErrSnapshotEncoding)
	if err != nil {
		return nil, err
	}
	nent, err := Count(r, c.MinLen+16, ErrSnapshotEncoding)
	if err != nil {
		return nil, err
	}
	s := &IndexSnapshot[K]{IndexMeta: *meta, Entries: make([]SnapEntry[K], 0, nent)}
	minOff := int64(HeaderSize + FrameHeaderSize + 1 + c.MinLen)
	for i := 0; i < nent; i++ {
		k, n, ok := c.Parse(data[len(data)-r.Remaining():])
		if !ok {
			return nil, fmt.Errorf("%w: entry key truncated", ErrSnapshotEncoding)
		}
		r.Raw(n)
		e := SnapEntry[K]{Key: k, Entry: Entry{Seg: r.Uint32(), Off: int64(r.Uint64()), Len: r.Uint32()}}
		if r.Err() != nil {
			break
		}
		if i > 0 && !c.Less(s.Entries[i-1].Key, k) {
			return nil, fmt.Errorf("%w: keys not strictly ascending", ErrSnapshotEncoding)
		}
		if e.Seg == 0 || int(e.Seg) > len(s.Segs) {
			return nil, fmt.Errorf("%w: entry in uncovered segment %d", ErrSnapshotEncoding, e.Seg)
		}
		if e.Off < minOff {
			return nil, fmt.Errorf("%w: entry offset %d inside segment header", ErrSnapshotEncoding, e.Off)
		}
		s.Entries = append(s.Entries, e)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSnapshotEncoding, err)
	}
	return s, nil
}

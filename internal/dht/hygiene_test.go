package dht

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"blobseer/internal/seglog"
	"blobseer/internal/seglog/seglogtest"
)

// countDHTRecordKinds tallies put and delete records on disk — the
// ground truth for the hygiene assertions.
func countDHTRecordKinds(t *testing.T, base string) (puts, tombs int) {
	seglogtest.ScanRecords(t, metaPairs, base, func(_ uint64, r seglog.Record[string], _ int64) {
		if r.Kind == seglog.RecPut {
			puts++
		} else {
			tombs++
		}
	})
	return puts, tombs
}

// TestDurableNodeCompactionConvergesChurnedLog pins the tombstone-hygiene
// cascade on the metadata log: after heavy churn, compaction converges
// the log to exactly its live set. The first pass rewrites the dead-put
// segments (hygiene-flagging the delete-bearing ones) and its covering
// snapshot seals the tail; the second pass drains the flags, dropping
// every delete record whose suppressed put is gone. Without the cascade,
// delete records of long-dead keys ride along forever.
func TestDurableNodeCompactionConvergesChurnedLog(t *testing.T) {
	r := newDurableNodeRigOpts(t, LogOptions{SegmentBytes: 1024})
	ctx := context.Background()
	c := r.client()
	const n = 60
	var keys [][]byte
	live := make(map[int][]byte)
	for i := 0; i < n; i++ {
		keys = append(keys, []byte(fmt.Sprintf("node/%d", i)))
		v := bytes.Repeat([]byte{byte(i)}, 100)
		if err := c.Put(ctx, keys[i], v); err != nil {
			t.Fatal(err)
		}
		live[i] = v
	}
	var dead [][]byte
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			dead = append(dead, keys[i])
			delete(live, i)
		}
	}
	if _, err := c.Delete(ctx, dead); err != nil {
		t.Fatal(err)
	}

	for pass := 1; pass <= 2; pass++ {
		if err := r.node.CompactLog(); err != nil {
			t.Fatalf("compaction pass %d: %v", pass, err)
		}
	}
	puts, dels := countDHTRecordKinds(t, r.path)
	if dels != 0 {
		t.Fatalf("%d delete records survive two compaction passes; hygiene did not converge", dels)
	}
	if puts != len(live) {
		t.Fatalf("%d put records on disk, want exactly the %d live keys", puts, len(live))
	}

	// Converged does not mean lossy, across the rewrites and a restart.
	r.restart()
	c = r.client()
	for i := 0; i < n; i++ {
		v, ok, err := c.Get(ctx, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if want, isLive := live[i]; isLive {
			if !ok || !bytes.Equal(v, want) {
				t.Fatalf("live key %d lost or changed after convergence", i)
			}
		} else if ok {
			t.Fatalf("deleted key %d resurrected after convergence", i)
		}
	}
}

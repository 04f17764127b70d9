package chip

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"delta/internal/snapshot"
)

// TestSnapshotIntoFailureAtomic: a capture that fails on tile k writes
// nothing, so its destination, which holds an earlier boundary's capture,
// still encodes byte-identically to before. Tile 0, a middle tile and the
// last tile each take a turn at failing.
func TestSnapshotIntoFailureAtomic(t *testing.T) {
	for _, k := range []int{0, 7, 15} {
		c := New(testConfig(16), NewSnuca())
		for i := 0; i < 16; i++ {
			c.SetWorkload(i, bigRegion(512, uint64(i)+1), true)
		}
		var dst snapshot.Chip
		var before []byte
		var captureErr error
		ctx, cancel := context.WithCancel(context.Background())
		boundary := 0
		c.SetCheckpoint(1, func(uint64) {
			boundary++
			switch boundary {
			case 2:
				if err := c.SnapshotInto(&dst); err != nil {
					t.Fatal(err)
				}
				var err error
				if before, err = json.Marshal(&dst); err != nil {
					t.Fatal(err)
				}
			case 4:
				// Two quanta later every tile's state has moved on; tile
				// k's generator now cannot be captured.
				c.Tiles[k].gen = opaqueGen{c.Tiles[k].gen}
				captureErr = c.SnapshotInto(&dst)
				cancel()
			}
		})
		if err := c.RunCtx(ctx, 100_000, 100_000); err == nil {
			t.Fatal("run finished before the fourth boundary")
		}
		cancel()
		if !errors.Is(captureErr, snapshot.ErrNotSnapshotable) {
			t.Fatalf("tile %d: capture error %v, want ErrNotSnapshotable", k, captureErr)
		}
		after, err := json.Marshal(&dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("tile %d: a failed capture changed its destination", k)
		}
	}
}

package chip_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"delta/internal/carma"
	"delta/internal/cbt"
	"delta/internal/central"
	"delta/internal/chip"
	"delta/internal/core"
	"delta/internal/snapshot"
)

// enforcingPolicy is a policy that enforces through chip.Enforcement and
// owns its snapshot payload.
type enforcingPolicy interface {
	chip.Policy
	chip.PolicySnapshotter
	chip.TableProvider
}

// TestPolicyRestoreRejectsBadTableWhole corrupts tile k's table in each
// enforcing policy's checkpoint payload: RestorePolicy must name tile k and
// leave every current table in place.
func TestPolicyRestoreRejectsBadTableWhole(t *testing.T) {
	const k = 5
	corruptions := map[string]func(r []snapshot.CBTRange){
		"gap":               func(r []snapshot.CBTRange) { r[0].Start = 1 },
		"bank off the chip": func(r []snapshot.CBTRange) { r[0].Bank = 16 },
	}
	builders := map[string]func() enforcingPolicy{
		"delta": func() enforcingPolicy { return core.New(core.DefaultParams()) },
		"ideal": func() enforcingPolicy { return central.NewIdeal(central.DefaultIdealConfig()) },
		"carma": func() enforcingPolicy { return carma.New(carma.DefaultConfig()) },
	}
	for name, build := range builders {
		for what, corrupt := range corruptions {
			t.Run(name+"/"+what, func(t *testing.T) {
				p := build()
				chip.New(chip.DefaultConfig(16), p)
				s, err := p.SnapshotPolicy()
				if err != nil {
					t.Fatal(err)
				}
				s.State = corruptTable(t, s.State, k, corrupt)
				live := make([]*cbt.Table, 16)
				for i := range live {
					live[i] = p.Table(i)
				}
				err = p.RestorePolicy(s)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tile %d", k)) {
					t.Fatalf("error %v does not name tile %d", err, k)
				}
				for i := range live {
					if p.Table(i) != live[i] {
						t.Fatalf("failed restore replaced tile %d's table", i)
					}
				}
			})
		}
	}
}

// corruptTable rewrites the "tables" entry of a policy payload with tile k
// corrupted.
func corruptTable(t *testing.T, state json.RawMessage, k int, corrupt func([]snapshot.CBTRange)) json.RawMessage {
	t.Helper()
	var payload map[string]json.RawMessage
	var tables []snapshot.CBT
	if err := json.Unmarshal(state, &payload); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(payload["tables"], &tables); err != nil {
		t.Fatal(err)
	}
	corrupt(tables[k].Ranges)
	var err error
	if payload["tables"], err = json.Marshal(tables); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

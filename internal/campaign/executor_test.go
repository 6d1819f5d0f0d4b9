package campaign

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestUnitExecutorContract pins the one executor every unit runs
// through: a one-job exact unit is Execute, a multi-job exact unit is
// refused on every cell, a unit cancelled before it starts reports
// ctx's error on every cell, and a lockstep unit whittled to one cell
// by the cache runs that cell once as an ordinary execution.
func TestUnitExecutorContract(t *testing.T) {
	spec := smallSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	exactUnit := []*Job{&jobs[0], &jobs[1]}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"one exact job equals Execute", func(t *testing.T) {
			want, err := Execute(context.Background(), &jobs[0])
			if err != nil {
				t.Fatal(err)
			}
			got, errs := ExecuteBatchStored(context.Background(), exactUnit[:1], nil)
			if len(got) != 1 || len(errs) != 1 || errs[0] != nil {
				t.Fatalf("unit of one: %d results, errs %v", len(got), errs)
			}
			if got[0].Stats != want.Stats || got[0].Hints != want.Hints || got[0].Sampled != nil ||
				got[0].Bench != want.Bench || got[0].Tech != want.Tech {
				t.Errorf("unit of one diverges from Execute: %+v vs %+v", got[0], want)
			}
			if got[0].StartedAt.IsZero() || got[0].FinishedAt.Before(got[0].StartedAt) {
				t.Errorf("unit of one stamped %v..%v", got[0].StartedAt, got[0].FinishedAt)
			}
		}},
		{"multi-job exact unit is rejected per cell", func(t *testing.T) {
			_, errs := ExecuteBatchStored(context.Background(), exactUnit, nil)
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), exactUnit[i].ID()) {
					t.Errorf("cell %d: err %v, want a rejection naming %s", i, err, exactUnit[i].ID())
				}
			}
		}},
		{"cancelled before start fails every cell", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			sampled := lockstepSweep([]int{16, 48})
			sjobs, err := sampled.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			for _, unit := range [][]*Job{exactUnit[:1], {&sjobs[0], &sjobs[1]}} {
				res, errs := ExecuteBatchStored(ctx, unit, nil)
				for i, err := range errs {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("%s: err %v, want context.Canceled", unit[i].ID(), err)
					}
					if res[i].Point.String() != unit[i].Point.String() || !res[i].StartedAt.IsZero() {
						t.Errorf("%s: cancelled result %+v", unit[i].ID(), res[i])
					}
				}
			}
		}},
		{"lockstep unit with one uncached cell", func(t *testing.T) {
			dir := t.TempDir()
			if _, err := (&Engine{Workers: 1, Lockstep: true, CacheDir: dir}).Run(context.Background(), lockstepSweep([]int{16, 48})); err != nil {
				t.Fatal(err)
			}
			var (
				mu      sync.Mutex
				started []Job
			)
			eng := &Engine{Workers: 1, Lockstep: true, CacheDir: dir, OnJobStart: func(j Job) {
				mu.Lock()
				started = append(started, j)
				mu.Unlock()
			}}
			rs, err := eng.Run(context.Background(), lockstepSweep([]int{16, 48, 80}))
			if err != nil {
				t.Fatal(err)
			}
			if rs.Executed != 1 || rs.CacheHits != 2 || rs.DedupHits != 0 || !rs.Complete() {
				t.Errorf("executed/cached/dedup = %d/%d/%d, want 1/2/0", rs.Executed, rs.CacheHits, rs.DedupHits)
			}
			if len(started) != 1 || started[0].Point.String() != "iq.entries=80" {
				t.Errorf("OnJobStart saw %v, want the iq.entries=80 cell once", started)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

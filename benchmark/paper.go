package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
)

// paperBudget is the committed instructions per cell of the paper-exact
// workload: large enough for the paper's shapes to settle (assertions
// elsewhere in the repository need at least 120k).
const paperBudget = 200_000

// paperExact is the paper's evaluation: the full suite under all five
// techniques, simulated exactly on an inline engine with no cache or
// checkpoint store, ending with the figure CSVs. The detailed core does
// almost all of the work; sampling, checkpoints, lockstep and the
// service are bypassed.
type paperExact struct {
	spec campaign.Spec
	ref  *reference
}

func newPaperExact(seed, budget int64) (*paperExact, error) {
	spec := campaign.DefaultSpec(budget)
	spec.Seed = seed
	ref, err := loadReference("paper-exact", seed, budget)
	if err != nil {
		return nil, err
	}
	return &paperExact{spec: spec, ref: ref}, nil
}

// figureCSVs renders every figure of the evaluation as CSV, the
// paper-exact workload's final output.
func figureCSVs(rs *campaign.ResultSet) (string, error) {
	suite, err := exp.FromCampaign(rs)
	if err != nil {
		return "", err
	}
	return strings.Join([]string{
		exp.Figure6CSV(suite), exp.Figure7CSV(suite), exp.Figure8CSV(suite),
		exp.Figure9CSV(suite), exp.Figure10CSV(suite), exp.Figure11CSV(suite),
		exp.Figure12CSV(suite), exp.SummaryCSV(suite),
	}, "\n"), nil
}

func (w *paperExact) rep(ctx context.Context, traced bool) (*repOut, error) {
	out := newRepOut()
	t0 := time.Now()
	spec := w.spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	if err := buildInputs(jobs); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var start time.Time
	var results []campaign.Result
	eng := &campaign.Engine{
		Workers: runtime.NumCPU(),
		OnResult: func(r campaign.Result) {
			mu.Lock()
			defer mu.Unlock()
			out.cellMS = append(out.cellMS, msSince(start))
			out.insts += coveredInsts(&r)
			results = append(results, r)
		},
	}
	if traced {
		eng.OnJobStart = func(campaign.Job) {
			mu.Lock()
			defer mu.Unlock()
			out.samples["campaign.queue_wait"] = append(out.samples["campaign.queue_wait"], msSince(start))
		}
	}
	var probe runtimeProbe
	if traced {
		probe = readRuntime()
	}
	start = time.Now()
	out.setup = start.Sub(t0)

	rs, runErr := eng.Run(ctx, spec)
	var export bytes.Buffer
	var figures string
	var exportStart time.Time
	if runErr == nil {
		exportStart = time.Now()
		if runErr = rs.WriteCSV(&export); runErr == nil {
			figures, runErr = figureCSVs(rs)
		}
	}
	end := time.Now()
	out.wall = end.Sub(start)
	out.campaignMS = append(out.campaignMS, msSince(start))
	out.attempted = len(jobs)
	if runErr != nil {
		out.failed = len(jobs)
		fmt.Fprintf(stderr, "paper-exact: %v\n", runErr)
		return out, nil
	}
	out.failed = w.ref.check("paper", export.String(), map[string]string{"figures": figures})

	if traced {
		probe.record(out)
		out.layer["campaign.export_ms"] = float64(end.Sub(exportStart).Microseconds()) / 1000
		out.layer["campaign.executed"] = float64(rs.Executed)
		out.layer["campaign.cache_hits"] = float64(rs.CacheHits)
		out.layer["campaign.dedup_hits"] = float64(rs.DedupHits)
		recordExecutions(out, results)
		var m modelled
		if err := m.add(rs); err != nil {
			return nil, err
		}
		m.record(out)
	}
	return out, nil
}

func (w *paperExact) reference() *reference { return w.ref }

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

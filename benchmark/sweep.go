package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/emu"
)

// sweepSize is the committed instructions per cell of the sampled-sweep
// workload: five windows of the sparse regime below.
const sweepSize = 1_000_000

// sweepEntries and refineEntries are the IQ sizes of the two campaigns:
// the refine adds bank-size multiples the sweep did not visit.
var (
	sweepEntries  = []int{16, 24, 32, 40, 48, 56, 64, 80}
	refineEntries = []int{8, 72}
)

// sampledSweep is a sampled sweep-then-refine on an inline lockstep
// engine over a checkpoint store that starts empty each repetition. The
// sweep generates one artifact per checkpoint key while its lockstep
// batches run; the refine resumes every batch from those artifacts.
type sampledSweep struct {
	sweep, refine campaign.Spec
	ref           *reference

	// Traced repetitions collect the run-level figures: every sampled
	// cell's IPC (for ipc_err_pct) and the standalone emulator and
	// artifact-read rates.
	sampledIPC map[string]float64
	emuRate    []float64
	readRate   []float64
}

func newSampledSweep(ctx context.Context, seed, budget int64) (*sampledSweep, error) {
	base := campaign.DefaultSpec(budget)
	base.Seed = seed
	base.Benchmarks = []string{"gzip", "mcf", "gcc"} // gcc's program depends on the seed
	base.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
	// The sparse regime: at full size, windows of 2k every 200k
	// instructions, where fast-forward and functional warming dominate.
	base.Sampling = &campaign.Sampling{Window: budget / 500, Period: budget / 5, Warmup: budget / 50, DetailWarmup: budget / 1000}
	sweep, refine := base, base
	sweep.Name = "sweep"
	sweep.Axes = []campaign.Axis{{Name: "iq.entries", Values: sweepEntries}}
	refine.Name = "refine"
	refine.Axes = []campaign.Axis{{Name: "iq.entries", Values: refineEntries}}
	ref, err := loadReference("sampled-sweep", seed, budget)
	if err != nil {
		return nil, err
	}
	// The plain engine, one cell at a time with no checkpoint store, is
	// the reference: lockstep and checkpointed runs must reproduce its
	// export byte for byte, so their faults show on every seed.
	for _, spec := range []campaign.Spec{sweep, refine} {
		text, _, err := localExport(ctx, spec)
		if err != nil {
			return nil, err
		}
		ref.expectText(spec.Name, text)
	}
	return &sampledSweep{sweep: sweep, refine: refine, ref: ref, sampledIPC: map[string]float64{}}, nil
}

func (w *sampledSweep) rep(ctx context.Context, traced bool) (*repOut, error) {
	out := newRepOut()
	t0 := time.Now()
	dir, err := tempDir("sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := ckpt.Open(filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	var jobs [2][]campaign.Job
	for i, spec := range []campaign.Spec{w.sweep, w.refine} {
		if jobs[i], err = spec.Jobs(); err != nil {
			return nil, err
		}
	}
	if err := buildInputs(jobs[:]...); err != nil {
		return nil, err
	}
	var probe runtimeProbe
	if traced {
		probe = readRuntime()
	}
	start := time.Now()
	out.setup = start.Sub(t0)

	var exportMS float64
	var executed []campaign.Result
	var sets []*campaign.ResultSet
	for i, spec := range []campaign.Spec{w.sweep, w.refine} {
		out.attempted += len(jobs[i])
		var mu sync.Mutex
		var results []campaign.Result
		began := time.Now()
		eng := &campaign.Engine{
			Workers:  runtime.NumCPU(),
			Lockstep: true,
			Ckpt:     store,
			OnResult: func(r campaign.Result) {
				mu.Lock()
				defer mu.Unlock()
				out.cellMS = append(out.cellMS, msSince(began))
				out.insts += coveredInsts(&r)
				results = append(results, r)
			},
		}
		// Keys whose artifact exists before the campaign resume; the
		// rest generate.
		existed := map[string]bool{}
		if traced {
			eng.OnJobStart = func(campaign.Job) {
				mu.Lock()
				defer mu.Unlock()
				out.samples["campaign.queue_wait"] = append(out.samples["campaign.queue_wait"], msSince(began))
			}
			for j := range jobs[i] {
				if key, _ := campaign.CheckpointKey(&jobs[i][j]); key != "" && store.Has(key) {
					existed[key] = true
				}
			}
		}
		rs, err := eng.Run(ctx, spec)
		var export bytes.Buffer
		exportStart := time.Now()
		if err == nil {
			err = rs.WriteCSV(&export)
		}
		exportMS += msSince(exportStart)
		if err != nil {
			out.failed += len(jobs[i])
			fmt.Fprintf(stderr, "sampled-sweep %s: %v\n", spec.Name, err)
			continue
		}
		out.failed += w.ref.check(spec.Name, export.String(), nil)
		if traced {
			executed = append(executed, results...)
			sets = append(sets, rs)
			w.recordBatches(out, results, existed, jobs[i])
			out.layer["campaign.executed"] += float64(rs.Executed)
			out.layer["campaign.cache_hits"] += float64(rs.CacheHits)
			out.layer["campaign.dedup_hits"] += float64(rs.DedupHits)
		}
	}
	out.wall = time.Since(start)
	out.campaignMS = append(out.campaignMS, msSince(start))

	if traced {
		probe.record(out)
		out.layer["campaign.export_ms"] = exportMS / 2
		recordExecutions(out, executed)
		m := store.Metrics()
		_, disk := store.DiskStat()
		out.layer["ckpt.generated"] = float64(m.Generated)
		out.layer["ckpt.hits"] = float64(m.Hits)
		out.layer["ckpt.hit_ratio"] = hitRatio(m.Hits, m.Generated)
		out.layer["ckpt.bytes_written"] = float64(m.BytesWritten)
		out.layer["ckpt.bytes_read"] = float64(m.BytesRead)
		out.layer["ckpt.disk_bytes"] = float64(disk)
		var mod modelled
		for _, rs := range sets {
			if err := mod.add(rs); err != nil {
				return nil, err
			}
			for i := range rs.Results {
				w.sampledIPC[cellKey(&rs.Results[i])] = rs.Results[i].Stats.IPC()
			}
		}
		mod.record(out)
		// Standalone layer passes, outside the timed work.
		read, err := readArtifacts(store, jobs[0])
		if err != nil {
			return nil, err
		}
		rate, err := emuRate(jobs[0])
		if err != nil {
			return nil, err
		}
		w.readRate = append(w.readRate, read)
		w.emuRate = append(w.emuRate, rate)
	}
	return out, nil
}

// recordBatches adds the campaign's lockstep batch spans to the
// sample.generate_ms or sample.resume_ms total, by whether the batch's
// artifact existed when the campaign began.
func (w *sampledSweep) recordBatches(out *repOut, results []campaign.Result, existed map[string]bool, jobs []campaign.Job) {
	keyOf := map[string]string{}
	for i := range jobs {
		key, _ := campaign.CheckpointKey(&jobs[i])
		keyOf[jobs[i].ID()] = key
	}
	for _, b := range batchesOf(results) {
		id := (&campaign.Job{Bench: b.cells[0].Bench, Tech: b.cells[0].Tech, Point: b.cells[0].Point}).ID()
		ms := float64(b.span().Microseconds()) / 1000
		if existed[keyOf[id]] {
			out.layer["sample.resume_ms"] += ms
		} else {
			out.layer["sample.generate_ms"] += ms
		}
	}
}

// emuRate runs the emulator alone over each distinct program of the
// jobs for the jobs' budget and returns the instructions per second in
// millions.
func emuRate(jobs []campaign.Job) (float64, error) {
	seen := map[string]bool{}
	var insts int64
	var spent time.Duration
	for i := range jobs {
		job := &jobs[i]
		key, _ := campaign.CheckpointKey(job)
		if seen[key] {
			continue
		}
		seen[key] = true
		p, _, err := campaign.Prepare(job)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		e, err := emu.New(p)
		if err != nil {
			return 0, err
		}
		e.Restart = true
		for n := int64(0); n < job.Budget; n++ {
			if _, ok := e.Next(); !ok {
				return 0, fmt.Errorf("%s: emulator halted after %d instructions", job.ID(), n)
			}
		}
		spent += time.Since(t0)
		insts += job.Budget
	}
	return float64(insts) / spent.Seconds() / 1e6, nil
}

// exactIPC returns the exact-simulation IPC of every cell of both
// campaigns.
func (w *sampledSweep) exactIPC(ctx context.Context) (map[string]float64, error) {
	return exactIPC(ctx, w.ref.pin, w.sweep, w.refine)
}

func (w *sampledSweep) reference() *reference { return w.ref }

// finishTrace adds the run-level figures: sampled IPC error against the
// exact reference, and the standalone emulator and artifact-read rates.
func (w *sampledSweep) finishTrace(ctx context.Context, values map[string]float64) error {
	exact, err := w.exactIPC(ctx)
	if err != nil {
		return err
	}
	if pct, ok := ipcErrPct(w.sampledIPC, exact); ok {
		values["ipc_err_pct"] = pct
	}
	values["emu.minst_per_s"] = median(w.emuRate)
	values["ckpt.read_mb_per_s"] = median(w.readRate)
	return nil
}

package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/campaign"
	"repro/internal/ckpt"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// routes are the service routes timed on the service-fleet workload.
var routes = []string{"submit", "events", "export", "lease", "heartbeat", "complete", "ckpt_get", "ckpt_put"}

// perLayerMetrics lists every per-layer metric, in BENCHMARK.json's
// order. A workload that bypasses a layer reports its metrics as 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"workload.build_ms", "ms"},
		{"core.instrument_ms", "ms"},
		{"core.hints", "count"},
		{"sim.exec_ms", "ms"},
		{"sim.minst_per_s", "Minst/s"},
		{"sim.cycles", "count"},
		{"sim.committed_insts", "count"},
		{"sim.ipc", "inst/cycle"},
		{"iq.avg_occupancy", "entries"},
		{"iq.banks_on", "banks"},
		{"regfile.banks_on", "banks"},
		{"cache.dl1_miss_rate", "ratio"},
		{"cache.l2_miss_rate", "ratio"},
		{"bpred.mispredict_rate", "ratio"},
		{"power.iq_dyn_saving_pct", "%"},
		{"power.iq_static_saving_pct", "%"},
		{"emu.minst_per_s", "Minst/s"},
		{"sample.generate_ms", "ms"},
		{"sample.resume_ms", "ms"},
		{"sample.batch_cells", "count"},
		{"sample.windows", "count"},
		{"sample.detailed_insts", "count"},
		{"sample.covered_insts", "count"},
		{"ckpt.generated", "count"},
		{"ckpt.hits", "count"},
		{"ckpt.hit_ratio", "ratio"},
		{"ckpt.bytes_written", "bytes"},
		{"ckpt.bytes_read", "bytes"},
		{"ckpt.disk_bytes", "bytes"},
		{"ckpt.read_mb_per_s", "MB/s"},
		{"campaign.queue_wait_p50_ms", "ms"},
		{"campaign.queue_wait_tail_ms", "ms"},
		{"campaign.executed", "count"},
		{"campaign.cache_hits", "count"},
		{"campaign.dedup_hits", "count"},
		{"campaign.export_ms", "ms"},
	}
	for _, r := range routes {
		defs = append(defs, metricDef{"serve.route_p50_ms." + r, "ms"}, metricDef{"serve.route_tail_ms." + r, "ms"})
	}
	return append(defs,
		metricDef{"serve.requests", "count"},
		metricDef{"serve.http_errors", "count"},
		metricDef{"serve.jobs_executed", "count"},
		metricDef{"serve.jobs_remote", "count"},
		metricDef{"serve.jobs_local", "count"},
		metricDef{"serve.jobs_fellback", "count"},
		metricDef{"serve.reuse_ratio", "ratio"},
		metricDef{"serve.leases_granted", "count"},
		metricDef{"serve.leases_expired", "count"},
		metricDef{"serve.lease_requeues", "count"},
		metricDef{"serve.ckpt_bytes_shipped", "bytes"},
		metricDef{"serve.unsteady_reps", "count"},
		metricDef{"worker.exec_p50_ms", "ms"},
		metricDef{"worker.exec_tail_ms", "ms"},
		metricDef{"worker.upload_ms", "ms"},
		metricDef{"worker.busy_pct", "%"},
		metricDef{"store.wal_appends_per_job", "count"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cpu_pct", "%"},
		metricDef{"trace_overhead_pct", "%"},
		metricDef{"failed_pct", "%"},
		metricDef{"ipc_err_pct", "%"},
		metricDef{"ipc_ci_pct", "%"},
		metricDef{"cell_tail_pctile", "pctile"},
		metricDef{"cell_samples", "count"},
		metricDef{"campaign_tail_pctile", "pctile"},
		metricDef{"campaign_samples", "count"},
	)
}()

// endToEndMetrics lists the end-to-end metrics, in BENCHMARK.json's
// order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"minst_per_s", "Minst/s"},
	{"cell_p50_ms", "ms"},
	{"cell_tail_ms", "ms"},
	{"campaign_p50_ms", "ms"},
	{"campaign_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// coveredInsts is the committed instructions a result accounts for: the
// whole stream for a sampled cell, the simulated run for an exact one.
func coveredInsts(r *campaign.Result) int64 {
	if r.Sampled != nil {
		return r.Sampled.TotalInsts
	}
	return r.Stats.CommittedReal
}

// recordExecutions fills the layer figures that come from a
// repetition's executed results: preparation (once per batch), the
// detailed core's exact runs and the sampled runs' coverage.
func recordExecutions(out *repOut, executed []campaign.Result) {
	var gen, compile, hints, execMS float64
	var cycles, committed, windows, detailed, covered int64
	var sampledBatches, sampledCells int
	for _, b := range batchesOf(executed) {
		g, c := b.prepMS()
		gen += g
		compile += c
		hints += float64(b.cells[0].Hints)
		if b.cells[0].Sampled == nil {
			// An exact job is a batch of one.
			r := &b.cells[0]
			execMS += float64(b.span().Microseconds())/1000 - g - c
			cycles += r.Stats.Cycles
			committed += r.Stats.CommittedReal
			continue
		}
		sampledBatches++
		sampledCells += len(b.cells)
		for i := range b.cells {
			s := b.cells[i].Sampled
			windows += int64(s.Windows)
			detailed += s.SampledInsts
			covered += s.TotalInsts
		}
	}
	out.layer["workload.build_ms"] = gen
	out.layer["core.instrument_ms"] = compile
	out.layer["core.hints"] = hints
	out.layer["sim.exec_ms"] = execMS
	out.layer["sim.cycles"] = float64(cycles)
	out.layer["sim.committed_insts"] = float64(committed)
	if execMS > 0 {
		out.layer["sim.minst_per_s"] = float64(committed) / execMS / 1e3
	}
	out.layer["sample.windows"] = float64(windows)
	out.layer["sample.detailed_insts"] = float64(detailed)
	out.layer["sample.covered_insts"] = float64(covered)
	if sampledBatches > 0 {
		out.layer["sample.batch_cells"] = float64(sampledCells) / float64(sampledBatches)
	}
}

// modelled accumulates the modelled components over delivered cells.
// They are deterministic for a seed: a change to the simulator's speed
// alone leaves them unchanged.
type modelled struct {
	n                                        int
	ipc, occ, iqBanks, rfBanks, dl1, l2, mis float64
	saves                                    int
	iqDyn, iqStatic, ipcCI                   float64
	ciCells                                  int
}

// add folds in every cell of a result set, and the IQ power savings of
// its NOOP cells against the baseline at the same point (the quantity
// of the paper's figure 8).
func (m *modelled) add(rs *campaign.ResultSet) error {
	for i := range rs.Results {
		r := &rs.Results[i]
		st := &r.Stats
		m.n++
		m.ipc += st.IPC()
		m.occ += st.AvgIQOccupancy()
		m.iqBanks += st.AvgIQBanksOn()
		m.rfBanks += st.AvgIntRFBanksOn()
		m.dl1 += st.DL1.MissRate()
		m.l2 += st.L2.MissRate()
		m.mis += st.Bpred.MispredictRate()
		if r.Sampled != nil {
			m.ipcCI += r.Sampled.IPC.RelHalfPct()
			m.ciCells++
		}
		if r.Tech != campaign.TechNOOP {
			continue
		}
		if _, ok := rs.Get(r.Bench, campaign.TechBaseline, r.Point); !ok {
			continue
		}
		sv, err := rs.Savings(r.Bench, r.Tech, r.Point)
		if err != nil {
			return err
		}
		m.saves++
		m.iqDyn += sv.IQDynamicPct
		m.iqStatic += sv.IQStaticPct
	}
	return nil
}

func (m *modelled) record(out *repOut) {
	if m.n == 0 {
		return
	}
	n := float64(m.n)
	out.layer["sim.ipc"] = m.ipc / n
	out.layer["iq.avg_occupancy"] = m.occ / n
	out.layer["iq.banks_on"] = m.iqBanks / n
	out.layer["regfile.banks_on"] = m.rfBanks / n
	out.layer["cache.dl1_miss_rate"] = m.dl1 / n
	out.layer["cache.l2_miss_rate"] = m.l2 / n
	out.layer["bpred.mispredict_rate"] = m.mis / n
	if m.saves > 0 {
		out.layer["power.iq_dyn_saving_pct"] = m.iqDyn / float64(m.saves)
		out.layer["power.iq_static_saving_pct"] = m.iqStatic / float64(m.saves)
	}
	if m.ciCells > 0 {
		out.layer["ipc_ci_pct"] = m.ipcCI / float64(m.ciCells)
	}
}

// readArtifacts reads every artifact of a store window by window, as a
// resume does, and returns the bytes read per second in MB/s. Each
// artifact must belong to one of the jobs, which give the program and
// configuration it is read with.
func readArtifacts(store *ckpt.Store, jobs []campaign.Job) (float64, error) {
	seen := map[string]bool{}
	var spent time.Duration
	for i := range jobs {
		job := &jobs[i]
		key, err := campaign.CheckpointKey(job)
		if err != nil || key == "" || seen[key] || !store.Has(key) {
			continue
		}
		seen[key] = true
		p, _, err := campaign.Prepare(job)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		r, err := store.OpenArtifact(key, p, job.Config.Caches, job.Config.Bpred)
		if err != nil {
			return 0, err
		}
		for {
			if _, err := r.Next(); err != nil {
				r.Close()
				if !errors.Is(err, io.EOF) {
					return 0, err
				}
				break
			}
		}
		spent += time.Since(t0)
	}
	// Every artifact of the store belongs to one of the jobs, so the
	// store's size is the bytes read.
	artifacts, bytes := store.DiskStat()
	if artifacts != int64(len(seen)) {
		return 0, fmt.Errorf("read %d of the store's %d artifacts", len(seen), artifacts)
	}
	if spent <= 0 {
		return 0, nil
	}
	return float64(bytes) / 1e6 / spent.Seconds(), nil
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/ckpt"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		pctile float64
		ok     bool
	}{
		{5, 100, false}, // no percentile has ten samples beyond it
		{19, 100, false},
		{20, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tail(seq(tc.n))
		if got.pctile != tc.pctile || ok != tc.ok || got.n != tc.n {
			t.Errorf("n=%d: got percentile %v (ok %v, n %d), want %v (ok %v)", tc.n, got.pctile, ok, got.n, tc.pctile, tc.ok)
		}
		if want := percentile(seq(tc.n), tc.pctile); got.value != want {
			t.Errorf("n=%d: tail %v, want %v", tc.n, got.value, want)
		}
	}
}

func TestLatencyStatsFixesTheTailPercentile(t *testing.T) {
	rep := func(n int) *repOut {
		r := newRepOut()
		for i := 0; i < n; i++ {
			r.cellMS = append(r.cellMS, float64(i))
		}
		return r
	}
	many := func(reps, n int) []*repOut {
		var rs []*repOut
		for i := 0; i < reps; i++ {
			rs = append(rs, rep(n))
		}
		return rs
	}
	// 44 cells a repetition: minReps repetitions give 220 samples, so the
	// tail is p95 however many repetitions ran.
	for _, reps := range []int{5, 23, 40} {
		rs := many(reps, 44)
		var pooled []float64
		for _, r := range rs {
			pooled = append(pooled, r.cellMS...)
		}
		_, tl, st := latencyStats(rs, cellSamples)
		if st.pctile != 95 || st.n != reps*44 || tl != percentile(pooled, 95) {
			t.Errorf("%d repetitions: tail %v at p%v of %d samples, want p95 of %d", reps, tl, st.pctile, st.n, reps*44)
		}
	}
	// One campaign a repetition supports no tail: it falls back to p50.
	p50, tl, st := latencyStats(many(7, 1), cellSamples)
	if st.pctile != 50 || tl != p50 {
		t.Errorf("one sample a repetition: tail %v at p%v, want the p50 %v", tl, st.pctile, p50)
	}
}

func TestIPCErrPct(t *testing.T) {
	exact := map[string]float64{"a": 2, "b": 1, "zero": 0}
	sampled := map[string]float64{"a": 2.2, "b": 0.95, "zero": 1, "unpinned": 3}
	got, ok := ipcErrPct(sampled, exact)
	// |2.2-2|/2 = 10%, |0.95-1|/1 = 5%; cells with no or a zero
	// reference are skipped.
	if !ok || abs(got-7.5) > 1e-9 {
		t.Fatalf("ipcErrPct = %v (ok %v), want 7.5", got, ok)
	}
	if _, ok := ipcErrPct(map[string]float64{"x": 1}, exact); ok {
		t.Error("no cell had a reference, but ok is true")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestBatchesCountSharedWorkOnce(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	cell := func(bench string, tech campaign.Technique, start, end time.Duration, sampled bool) campaign.Result {
		r := campaign.Result{
			Bench: bench, Tech: tech, GenMS: 2, CompileMS: 3, Hints: 7,
			StartedAt: t0.Add(start), FinishedAt: t0.Add(end),
		}
		r.Stats.Cycles, r.Stats.CommittedReal = 100, 200
		if sampled {
			r.Sampled = &campaign.SampledMeta{Windows: 5, SampledInsts: 10, TotalInsts: 1000}
		}
		return r
	}
	cached := cell("gzip", campaign.TechBaseline, 0, time.Second, true)
	cached.Cached = true
	results := []campaign.Result{
		// One lockstep batch of three cells, mixing two techniques of
		// one warming class.
		cell("gzip", campaign.TechBaseline, 0, 40*time.Millisecond, true),
		cell("gzip", campaign.TechAbella, 0, 40*time.Millisecond, true),
		cell("gzip", campaign.TechBaseline, 0, 40*time.Millisecond, true),
		// A second batch of the same benchmark with its own span.
		cell("gzip", campaign.TechBaseline, 10*time.Millisecond, 30*time.Millisecond, true),
		// An exact job, a batch of one.
		cell("mcf", campaign.TechNOOP, 0, 40*time.Millisecond, false),
		// A cache hit carries its producer's stamps and is left out.
		cached,
	}
	batches := batchesOf(results)
	if len(batches) != 3 || len(batches[0].cells) != 3 {
		t.Fatalf("got %d batches (first has %d cells), want 3 (first has 3)", len(batches), len(batches[0].cells))
	}
	out := newRepOut()
	recordExecutions(out, results)
	for name, want := range map[string]float64{
		"workload.build_ms":     3 * 2,
		"core.instrument_ms":    3 * 3,
		"core.hints":            3 * 7,
		"sim.exec_ms":           40 - 2 - 3,
		"sim.cycles":            100,
		"sample.windows":        4 * 5,
		"sample.covered_insts":  4 * 1000,
		"sample.detailed_insts": 4 * 10,
		"sample.batch_cells":    2, // four sampled cells in two batches
	} {
		if got := out.layer[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestHitRatioIgnoresDoubleCountedMisses(t *testing.T) {
	if got := hitRatio(6, 3); abs(got-6.0/9) > 1e-12 {
		t.Errorf("hitRatio(6, 3) = %v, want 2/3", got)
	}
	if got := hitRatio(0, 0); got != 0 {
		t.Errorf("hitRatio(0, 0) = %v, want 0", got)
	}

	// A lockstep sweep over an empty store generates one artifact per
	// key but records two misses for each; a refine then resumes.
	w, err := newSampledSweep(context.Background(), 3, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := &campaign.Engine{Workers: 2, Lockstep: true, Ckpt: store}
	if _, err := eng.Run(context.Background(), w.sweep); err != nil {
		t.Fatal(err)
	}
	m := store.Metrics()
	keys := int64(len(w.sweep.Benchmarks) * 2) // baseline and NOOP warm separately
	if m.Generated != keys || m.Hits != 0 {
		t.Fatalf("sweep: generated %d, hits %d; want %d, 0", m.Generated, m.Hits, keys)
	}
	if m.Misses != 2*keys {
		t.Logf("sweep recorded %d misses for %d generations; the double count this guards against is gone", m.Misses, keys)
	}
	if got := hitRatio(m.Hits, m.Generated); got != 0 {
		t.Errorf("hit ratio after a cold sweep = %v, want 0", got)
	}
	if _, err := eng.Run(context.Background(), w.refine); err != nil {
		t.Fatal(err)
	}
	m = store.Metrics()
	if got := hitRatio(m.Hits, m.Generated); got != 0.5 {
		t.Errorf("hit ratio after the refine = %v (hits %d, generated %d), want 0.5", got, m.Hits, m.Generated)
	}
}

func TestReferenceCountsWrongCells(t *testing.T) {
	const good = "bench,ipc\ngzip,1.0\nmcf,0.5\ncrafty,2.0\n"
	r := &reference{expect: map[string]string{}}
	if n := r.check("c", good, nil); n != 0 {
		t.Fatalf("first output: %d wrong, want 0 (it becomes the expectation)", n)
	}
	if n := r.check("c", good, nil); n != 0 {
		t.Errorf("identical output: %d wrong", n)
	}
	if n := r.check("c", strings.Replace(good, "0.5", "0.6", 1), nil); n != 1 {
		t.Errorf("one changed row: %d wrong, want 1", n)
	}
	if n := r.check("c", "bench,ipc\ngzip,1.0\n", nil); n != 2 {
		t.Errorf("two missing rows: %d wrong, want 2", n)
	}
	if n := r.check("c", good, map[string]string{"fig": "a"}); n != 0 {
		t.Errorf("first derived output: %d wrong", n)
	}
	if n := r.check("c", good, map[string]string{"fig": "b"}); n != 3 {
		t.Errorf("changed derived output: %d wrong, want every cell", n)
	}

	pinned := &reference{expect: map[string]string{}, pin: &pin{Digests: map[string]string{"c": digest(good)}}}
	if n := pinned.check("c", good, nil); n != 0 {
		t.Errorf("output matching its pin: %d wrong", n)
	}
	pinned = &reference{expect: map[string]string{}, pin: &pin{Digests: map[string]string{"c": digest("other")}}}
	if n := pinned.check("c", good, nil); n != 3 {
		t.Errorf("output differing from its pin: %d wrong, want every cell", n)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists the program
// prints and the ones BENCHMARK.json declares identical.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames())
	}
}

// smoke runs one untraced and one traced repetition of a reduced-size
// workload, checks both pass their correctness checks, and that the
// workload's layers reported.
func smoke(t *testing.T, w workload, layers ...string) *repOut {
	t.Helper()
	scratchBase = t.TempDir()
	stderr = io.Discard
	ctx := context.Background()
	plain, err := w.rep(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := w.rep(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*repOut{plain, traced} {
		if r.attempted == 0 || r.failed != 0 {
			t.Fatalf("%d of %d cells failed", r.failed, r.attempted)
		}
		if r.wall <= 0 || r.insts <= 0 || len(r.cellMS) == 0 || len(r.campaignMS) == 0 {
			t.Fatalf("repetition measured nothing: %+v", r)
		}
	}
	for _, name := range layers {
		if traced.layer[name] <= 0 && len(traced.samples[name]) == 0 {
			t.Errorf("traced repetition did not report %s", name)
		}
	}
	res, err := perLayerResult(ctx, &reps{plain: []*repOut{plain}, traced: []*repOut{traced}}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayerMetrics) || !res.Correct {
		t.Errorf("per-layer result has %d metrics (want %d), correct %v", len(res.Metrics), len(perLayerMetrics), res.Correct)
	}
	return traced
}

func TestSmokePaperExact(t *testing.T) {
	w, err := newPaperExact(5, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, w, "sim.exec_ms", "sim.cycles", "workload.build_ms", "core.instrument_ms", "sim.ipc",
		"power.iq_dyn_saving_pct", "campaign.executed", "campaign.queue_wait")
	// The correctness check catches a wrong cell.
	var bad strings.Builder
	for i, line := range strings.Split(w.ref.expect["paper"], "\n") {
		if i == 1 {
			line = strings.Replace(line, ",", ",x", 1)
		}
		bad.WriteString(line + "\n")
	}
	if n := w.ref.check("paper", strings.TrimSuffix(bad.String(), "\n"), nil); n != 1 {
		t.Errorf("a corrupted row counted %d wrong cells, want 1", n)
	}
	pinRoundTrip(t, w, func() (workload, error) { return newPaperExact(5, 5_000) })
}

func TestSmokeSampledSweep(t *testing.T) {
	w, err := newSampledSweep(context.Background(), 5, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	r := smoke(t, w, "sample.generate_ms", "sample.resume_ms", "sample.windows", "ckpt.generated",
		"ckpt.hits", "ckpt.disk_bytes", "ipc_ci_pct")
	if r.layer["ckpt.hit_ratio"] != 0.5 {
		t.Errorf("ckpt.hit_ratio = %v, want 0.5 (the refine resumes every batch the sweep generated)", r.layer["ckpt.hit_ratio"])
	}
	values := map[string]float64{}
	if err := w.finishTrace(context.Background(), values); err != nil {
		t.Fatal(err)
	}
	if values["ipc_err_pct"] <= 0 || values["emu.minst_per_s"] <= 0 || values["ckpt.read_mb_per_s"] <= 0 {
		t.Errorf("run-level figures missing: %v", values)
	}
	if n := w.ref.check("refine", "bench\nnot-a-cell\n", nil); n == 0 {
		t.Error("a wrong refine export passed the check")
	}
	pinRoundTrip(t, w, func() (workload, error) { return newSampledSweep(context.Background(), 5, 50_000) })
}

// pinRoundTrip makes a pin for w and checks that a fresh workload of the
// same seed and size passes against it, and fails every cell when a
// pinned digest is wrong.
func pinRoundTrip(t *testing.T, w workload, fresh func() (workload, error)) {
	t.Helper()
	ctx := context.Background()
	p, err := makePin(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Digests) == 0 {
		t.Fatal("pin has no digests")
	}
	if _, ok := w.(sampler); ok && len(p.ExactIPC) == 0 {
		t.Error("pin of a sampled workload has no exact IPC")
	}
	for _, corrupt := range []bool{false, true} {
		w2, err := fresh()
		if err != nil {
			t.Fatal(err)
		}
		q := *p
		q.Digests = map[string]string{}
		for k, v := range p.Digests {
			q.Digests[k] = v
			if corrupt {
				q.Digests[k] = digest("other")
			}
		}
		w2.reference().pin = &q
		out, err := w2.rep(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{false: 0, true: out.attempted}[corrupt]; out.failed != want {
			t.Errorf("corrupted pin %v: %d of %d cells failed, want %d", corrupt, out.failed, out.attempted, want)
		}
	}
}

func TestFleetTracedRepetitionsMatchUntracedOrders(t *testing.T) {
	w := &serviceFleet{pool: fleetPool(5, 20_000)}
	n := len(w.pool)
	held := make([]map[int]bool, n) // positions each campaign held
	for i := range held {
		held[i] = map[int]bool{}
	}
	for r := 0; r < n; r++ {
		plain, traced := w.schedules(false), w.schedules(true)
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("repetition pair %d: untraced %v, traced %v", r, plain, traced)
		}
		for k, i := range plain[0] {
			held[i][k] = true
			if k%2 == 0 && plain[1][k] != i {
				t.Errorf("repetition %d position %d: clients run %d and %d, want the same campaign", r, k, i, plain[1][k])
			}
		}
	}
	for i := range held {
		if len(held[i]) != n {
			t.Errorf("campaign %d held %d of %d positions over %d repetitions", i, len(held[i]), n, n)
		}
	}
}

func TestSmokeServiceFleet(t *testing.T) {
	scratchBase = t.TempDir()
	w, err := newServiceFleet(context.Background(), 5, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	r := smoke(t, w, "serve.requests", "serve.jobs_remote", "serve.leases_granted", "serve.route.submit",
		"serve.route.complete", "worker.exec", "store.wal_appends_per_job", "serve.reuse_ratio")
	if r.layer["serve.jobs_local"] != 0 {
		t.Errorf("%v jobs ran on the coordinator; every job should run on a worker", r.layer["serve.jobs_local"])
	}
	values := map[string]float64{}
	if err := w.finishTrace(context.Background(), values); err != nil {
		t.Fatal(err)
	}
	if values["ipc_err_pct"] <= 0 {
		t.Errorf("ipc_err_pct = %v, want the sampled cells' error against exact IPC", values["ipc_err_pct"])
	}
	if n := w.ref.check(w.pool[0].Name, "bench\nnot-a-cell\n", nil); n == 0 {
		t.Error("a service export that differs from the local run passed the check")
	}
	pinRoundTrip(t, w, func() (workload, error) { return newServiceFleet(context.Background(), 5, 20_000) })
}

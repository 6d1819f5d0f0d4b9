// Command sdiqbench is the repository benchmark: it runs one named
// workload against the simulator stack for a fixed time, checks every
// output against a reference, and prints its metrics as one JSON object
// on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload paper-exact --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --regen-refs
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, measured on repetitions that alternate
// with untraced ones so the tracing overhead is reported too. The
// workloads, their metrics and why each was chosen are described in
// benchmark/NOTES.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named set of inputs. rep runs one repetition of its
// fixed work: it times its own set-up and the work separately, checks
// the outputs against its reference, and, when traced, records
// per-layer figures.
type workload interface {
	rep(ctx context.Context, traced bool) (*repOut, error)
	reference() *reference
}

// sampler is a workload with sampled cells, whose exact IPC is the base
// of ipc_err_pct.
type sampler interface {
	exactIPC(ctx context.Context) (map[string]float64, error)
}

// tracer is a workload with run-level per-layer figures, computed once
// after the traced repetitions.
type tracer interface {
	finishTrace(ctx context.Context, values map[string]float64) error
}

// repOut is what one repetition measured.
type repOut struct {
	setup, wall time.Duration
	// insts is the simulated committed instructions covered by all the
	// repetition's results (sampled cells count their whole stream).
	insts int64
	// cellMS and campaignMS are delivery latencies from each cell's or
	// campaign's start until its result or export was in hand.
	cellMS, campaignMS []float64
	// peakRSS is the resident-memory peak seen during the repetition,
	// in MB.
	peakRSS float64
	// attempted and failed count cells; failed includes refused and
	// wrong-output cells.
	attempted, failed int
	// layer holds per-layer scalars and samples per-layer distributions;
	// both are filled on traced repetitions only.
	layer   map[string]float64
	samples map[string][]float64
}

func newRepOut() *repOut {
	return &repOut{layer: map[string]float64{}, samples: map[string][]float64{}}
}

// minReps is the fewest repetitions a run makes, whatever --seconds
// says: enough for every median to have a middle and for each
// workload's cell tail to be taken at p95.
const minReps = 5

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	regen := flag.Bool("regen-refs", false, "recompute the pinned references under benchmark/refs and exit")
	flag.Parse()

	ctx := context.Background()
	if *regen {
		if err := regenRefs(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sdiqbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(ctx, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "sdiqbench:", err)
		os.Exit(1)
	}
}

// newWorkload builds the named workload for a seed at full size.
func newWorkload(ctx context.Context, name string, seed int64) (workload, error) {
	switch name {
	case "paper-exact":
		return newPaperExact(seed, paperBudget)
	case "sampled-sweep":
		return newSampledSweep(ctx, seed, sweepSize)
	case "service-fleet":
		return newServiceFleet(ctx, seed, fleetSize)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string { return []string{"paper-exact", "sampled-sweep", "service-fleet"} }

func run(ctx context.Context, name string, seed int64, seconds int, traced bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := checkCheckout(); err != nil {
		return err
	}
	w, err := newWorkload(ctx, name, seed)
	if err != nil {
		return err
	}
	reps, err := measure(ctx, w, time.Duration(seconds)*time.Second, traced)
	if err != nil {
		return err
	}
	var res result
	if traced {
		if res, err = perLayerResult(ctx, reps, w); err != nil {
			return err
		}
	} else {
		res = endToEndResult(reps.plain)
	}
	report(os.Stderr, name, seed, reps, res)
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// checkCheckout refuses to run outside a repository checkout: the
// benchmark measures the program built from the tree around it.
func checkCheckout() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the repository root (no go.mod here)")
	}
	return nil
}

// reps are the repetitions of one run, split by whether they were traced.
type reps struct {
	plain, traced []*repOut
}

// measure repeats the workload until the measured time is used up. A
// traced run alternates untraced and traced repetitions, so both halves
// see the same machine conditions.
func measure(ctx context.Context, w workload, budget time.Duration, traced bool) (*reps, error) {
	var rs reps
	var spent time.Duration
	for i := 0; ; i++ {
		n := len(rs.plain)
		if traced {
			n = min(len(rs.plain), len(rs.traced))
		}
		if n >= minReps && spent >= budget {
			return &rs, nil
		}
		withTrace := traced && i%2 == 1
		// Collect the previous repetition's garbage first, so no
		// repetition pays for another's.
		runtime.GC()
		stop := sampleRSS()
		out, err := w.rep(ctx, withTrace)
		peak := stop()
		if err != nil {
			return nil, err
		}
		out.peakRSS = peak
		spent += out.wall
		if withTrace {
			rs.traced = append(rs.traced, out)
		} else {
			rs.plain = append(rs.plain, out)
		}
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func tally(rs []*repOut) (attempted, failed int) {
	for _, r := range rs {
		attempted += r.attempted
		failed += r.failed
	}
	return attempted, failed
}

// latencyStats pools the latency samples of all repetitions and
// returns their p50 and tail. The tail's percentile follows the ladder
// rule applied to the samples minReps repetitions are sure to give, so
// it is fixed for a workload whatever number of repetitions a run
// makes; when even p50 lacks ten samples beyond it, the tail is the p50.
func latencyStats(rs []*repOut, samples func(*repOut) []float64) (p50, tl float64, t tailStat) {
	var pooled []float64
	perRep := -1
	for _, r := range rs {
		xs := samples(r)
		pooled = append(pooled, xs...)
		if perRep < 0 || len(xs) < perRep {
			perRep = len(xs)
		}
	}
	guaranteed := make([]float64, max(perRep, 0)*minReps)
	t, ok := tail(guaranteed)
	if !ok {
		t.pctile = 50
	}
	t.n, t.value = len(pooled), percentile(pooled, t.pctile)
	return percentile(pooled, 50), t.value, t
}

func cellSamples(r *repOut) []float64     { return r.cellMS }
func campaignSamples(r *repOut) []float64 { return r.campaignMS }

// endToEndResult summarises untraced repetitions by the median across
// repetitions of each repetition's figures.
func endToEndResult(rs []*repOut) result {
	var setup, wall, rate, rss []float64
	for _, r := range rs {
		setup = append(setup, r.setup.Seconds())
		wall = append(wall, r.wall.Seconds())
		rate = append(rate, float64(r.insts)/r.wall.Seconds()/1e6)
		rss = append(rss, r.peakRSS)
	}
	cellP50, cellTail, _ := latencyStats(rs, cellSamples)
	campP50, campTail, _ := latencyStats(rs, campaignSamples)
	values := map[string]float64{
		"setup_s":          median(setup),
		"wall_s":           median(wall),
		"minst_per_s":      median(rate),
		"cell_p50_ms":      cellP50,
		"cell_tail_ms":     cellTail,
		"campaign_p50_ms":  campP50,
		"campaign_tail_ms": campTail,
		"peak_rss_mb":      median(rss),
	}
	attempted, failed := tally(rs)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metricsOf(endToEndMetrics, values)}
}

// metricsOf picks the listed metrics out of values, with their units.
func metricsOf(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out
}

// perLayerResult summarises traced repetitions: the median across
// traced repetitions of each per-layer scalar, pooled percentiles of
// each per-layer distribution, and the tracing overhead against the
// untraced repetitions of the same run.
func perLayerResult(ctx context.Context, rs *reps, w workload) (result, error) {
	scalars := map[string][]float64{}
	pooled := map[string][]float64{}
	for _, r := range rs.traced {
		for k, v := range r.layer {
			scalars[k] = append(scalars[k], v)
		}
		for k, v := range r.samples {
			pooled[k] = append(pooled[k], v...)
		}
	}
	values := map[string]float64{}
	for k, v := range scalars {
		values[k] = median(v)
	}
	for k, v := range pooled {
		p50, tl := k+"_p50_ms", k+"_tail_ms"
		if r, ok := strings.CutPrefix(k, "serve.route."); ok {
			p50, tl = "serve.route_p50_ms."+r, "serve.route_tail_ms."+r
		}
		values[p50] = percentile(v, 50)
		t, _ := tail(v)
		values[tl] = t.value
	}
	var plainWall, tracedWall []float64
	for _, r := range rs.plain {
		plainWall = append(plainWall, r.wall.Seconds())
	}
	for _, r := range rs.traced {
		tracedWall = append(tracedWall, r.wall.Seconds())
	}
	values["trace_overhead_pct"] = 100 * (median(tracedWall)/median(plainWall) - 1)

	all := append(append([]*repOut(nil), rs.plain...), rs.traced...)
	_, _, ct := latencyStats(all, cellSamples)
	_, _, mt := latencyStats(all, campaignSamples)
	values["cell_tail_pctile"], values["cell_samples"] = ct.pctile, float64(ct.n)
	values["campaign_tail_pctile"], values["campaign_samples"] = mt.pctile, float64(mt.n)

	attempted, failed := tally(all)
	if attempted > 0 {
		values["failed_pct"] = 100 * float64(failed) / float64(attempted)
	}
	if f, ok := w.(tracer); ok {
		if err := f.finishTrace(ctx, values); err != nil {
			return result{}, err
		}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metricsOf(perLayerMetrics, values)}, nil
}

// report prints a human-readable summary to w.
func report(w *os.File, name string, seed int64, rs *reps, res result) {
	fmt.Fprintf(w, "sdiqbench: %s seed %d: %d untraced + %d traced repetitions, %d/%d cells failed\n",
		name, seed, len(rs.plain), len(rs.traced), res.Failed, res.Attempted)
	fmt.Fprintf(w, "  repetition wall times (s):")
	for _, r := range append(append([]*repOut(nil), rs.plain...), rs.traced...) {
		fmt.Fprintf(w, " %.3f", r.wall.Seconds())
	}
	fmt.Fprintln(w)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

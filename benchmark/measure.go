package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/stats"
	generators "repro/internal/workload"
)

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the p-th percentile by linear interpolation, the rule
// the program's own reports use.
func percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailStat is a tail latency with the percentile it was taken at and
// the sample count behind it.
type tailStat struct {
	value, pctile float64
	n             int
}

// tail returns the highest percentile of the ladder with at least ten
// samples beyond it. With ten samples or fewer no percentile qualifies,
// and the tail is the maximum (reported as percentile 100).
func tail(xs []float64) (tailStat, bool) {
	n := len(xs)
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate 100-99.9 rounding
			return tailStat{percentile(xs, p), p, n}, true
		}
	}
	return tailStat{percentile(xs, 100), 100, n}, false
}

// ipcErrPct is the mean relative IPC error of sampled cells against
// their exact reference, in percent. Cells without a reference are
// skipped; ok is false when no cell had one.
func ipcErrPct(sampled, exact map[string]float64) (pct float64, ok bool) {
	var sum float64
	n := 0
	for k, s := range sampled {
		e, found := exact[k]
		if !found || e == 0 {
			continue
		}
		d := s - e
		if d < 0 {
			d = -d
		}
		sum += d / e
		n++
	}
	if n == 0 {
		return 0, false
	}
	return 100 * sum / float64(n), true
}

// hitRatio is checkpoint resumes over artifact uses. It is computed
// from Hits and Generated, not from Misses: a lockstep batch looks an
// artifact up twice before generating it (before and after taking the
// key lock), so Misses counts each generation twice.
func hitRatio(hits, generated int64) float64 {
	if hits+generated == 0 {
		return 0
	}
	return float64(hits) / float64(hits+generated)
}

// batch is one execution that produced one or more cells: a lockstep
// batch, or a single job.
type batch struct {
	cells             []campaign.Result
	started, finished time.Time
}

// batchesOf groups results that share one execution. A lockstep batch
// stamps one preparation (GenMS, CompileMS, Hints) and one
// StartedAt/FinishedAt span into every cell it produced, so summing
// those per cell would count the batch once per cell. Cells of one
// benchmark with an identical span are one batch (a batch may mix
// techniques that share a warming class, such as baseline and abella).
// Results served from the cache or by dedup are left out: they carry
// the stamps of the execution that produced them.
func batchesOf(results []campaign.Result) []batch {
	type id struct {
		bench             string
		started, finished int64
	}
	index := map[id]int{}
	var out []batch
	for _, r := range results {
		if r.Cached || r.Dedup || r.StartedAt.IsZero() {
			continue
		}
		k := id{r.Bench, r.StartedAt.UnixNano(), r.FinishedAt.UnixNano()}
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, batch{started: r.StartedAt, finished: r.FinishedAt})
		}
		out[i].cells = append(out[i].cells, r)
	}
	return out
}

// span is the batch's wall time.
func (b batch) span() time.Duration { return b.finished.Sub(b.started) }

// prepMS is the batch's one preparation: program generation and
// instrumentation, in milliseconds.
func (b batch) prepMS() (gen, compile float64) {
	return b.cells[0].GenMS, b.cells[0].CompileMS
}

// rssInterval is how often sampleRSS reads the resident set size.
const rssInterval = 5 * time.Millisecond

// sampleRSS starts sampling the process's resident set size; the
// returned function stops sampling and returns the peak in MB.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		max := rssMB()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				peak <- math.Max(max, rssMB())
				return
			case <-t.C:
				max = math.Max(max, rssMB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// rssMB reads the resident set size from /proc/self/statm.
func rssMB() float64 {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(blob))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// runtimeProbe measures allocation and garbage-collector CPU share
// over an interval of the whole process.
type runtimeProbe struct {
	alloc       uint64
	gcCPU, cpus float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeProbe{alloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), cpus: s[1].Value.Float64()}
}

// record stores the interval since p in the repetition's layer figures.
func (p runtimeProbe) record(out *repOut) {
	now := readRuntime()
	out.layer["runtime.alloc_mb"] = float64(now.alloc-p.alloc) / (1 << 20)
	if d := now.cpus - p.cpus; d > 0 {
		out.layer["runtime.gc_cpu_pct"] = 100 * (now.gcCPU - p.gcCPU) / d
	}
}

// scratchBase is where repetitions put their stores and state: the
// build directory of the checkout, so a run writes nowhere else.
var scratchBase = func() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "tmp")
	}
	return filepath.Join(".bench_build", "tmp")
}()

// tempDir makes a fresh directory under scratchBase.
func tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(scratchBase, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchBase, pattern)
}

// buildInputs generates every benchmark program the jobs name, at the
// jobs' seeds: the input generation a repetition does before its timed
// work, which also proves every named benchmark exists.
func buildInputs(jobs ...[]campaign.Job) error {
	type input struct {
		bench string
		seed  int64
	}
	seen := map[input]bool{}
	for _, js := range jobs {
		for i := range js {
			in := input{js[i].Bench, js[i].Seed}
			if seen[in] {
				continue
			}
			seen[in] = true
			b, ok := generators.ByName(in.bench)
			if !ok {
				return fmt.Errorf("%s: unknown benchmark", js[i].ID())
			}
			if p := b.Build(in.seed); !p.Linked() {
				return fmt.Errorf("%s: program did not link", js[i].ID())
			}
		}
	}
	return nil
}

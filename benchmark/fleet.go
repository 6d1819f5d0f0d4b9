package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"

	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/serve"
	"repro/internal/worker"
)

// fleetSize is the instruction budget of the service-fleet workload's
// sampled campaigns (five windows each); its exact campaigns run at
// fleetExactBudget, and the one whose cells run long enough to
// heartbeat at fleetLongBudget. A smaller size scales all three.
const (
	fleetSize        = 100_000
	fleetExactBudget = 20_000
	fleetLongBudget  = 1_000_000
)

// Service-fleet shape: two workers of one slot each do the simulating,
// for two closed-loop clients.
const (
	fleetWorkers = 2
	fleetClients = 2
)

// Lease timing. Heartbeats come every third of the lease TTL, so the
// cells of the long exact campaign heartbeat; offers and workers never
// time out, so every job runs remotely and placement does not depend on
// timing.
const (
	fleetLeaseTTL = 600 * time.Millisecond
	fleetPatience = 2 * time.Minute
)

// Credentials of the in-process service: one per client and one shared
// by the workers.
var fleetTokens = []auth.Token{
	{Token: "bench-tenant-0", Principal: "tenant-0", Role: auth.RoleTenant},
	{Token: "bench-tenant-1", Principal: "tenant-1", Role: auth.RoleTenant},
	{Token: "bench-worker", Principal: "fleet", Role: auth.RoleWorker},
}

// serviceFleet drives an in-process campaign service over loopback: two
// workers simulate, two closed-loop clients each submit a campaign,
// stream its events, fetch its CSV export, then submit the next. About
// half of all cells repeat earlier ones, and both clients open with the
// same campaign at once, so the result cache and in-flight dedup work
// next to the dispatcher, the worker protocol, the write-ahead log and
// checkpoint shipping.
type serviceFleet struct {
	pool []campaign.Spec
	// reps counts the untraced and the traced repetitions scheduled so
	// far, and unsteady the traced ones whose placement depended on
	// timing.
	reps     [2]int
	unsteady int
	ref      *reference
	// covered is each pooled campaign's covered instructions, from its
	// local reference run.
	covered []int64
	jobs    [][]campaign.Job
	// sampledIPC is the IPC of every sampled cell the service delivered
	// on traced repetitions.
	sampledIPC map[string]float64
}

// fleetPool builds the campaign pool: sampled IQ sweeps that share
// checkpoint keys and overlap in points, and exact technique grids that
// overlap in cells. The seed feeds the program generators (gcc and
// perlbmk depend on it) and picks the sweeps' IQ sizes.
func fleetPool(seed, budget int64) []campaign.Spec {
	sampled := func(name, bench string, entries []int) campaign.Spec {
		s := campaign.DefaultSpec(budget)
		s.Name, s.Seed = name, seed
		s.Benchmarks = []string{bench}
		s.Techniques = []campaign.Technique{campaign.TechBaseline}
		s.Axes = []campaign.Axis{{Name: "iq.entries", Values: entries}}
		s.Sampling = &campaign.Sampling{Window: budget / 100, Period: budget / 5, Warmup: budget / 20, DetailWarmup: budget / 200}
		return s
	}
	exact := func(name string, b int64, benches ...string) campaign.Spec {
		s := campaign.DefaultSpec(b)
		s.Name, s.Seed = name, seed
		s.Benchmarks = benches
		s.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
		return s
	}
	scale := func(b int64) int64 { return b * budget / fleetSize }
	// IQ sizes are bank-size multiples; the two gzip sweeps share two.
	rng := rand.New(rand.NewSource(seed))
	sizes := func(n int) []int {
		var out []int
		for _, i := range rng.Perm(10)[:n] {
			out = append(out, 8*(i+1))
		}
		return out
	}
	gzip := sizes(6)
	return []campaign.Spec{
		sampled("sweep-gzip-a", "gzip", gzip[:4]),
		sampled("sweep-gzip-b", "gzip", gzip[2:]),
		sampled("sweep-mcf", "mcf", sizes(4)),
		exact("grid-a", scale(fleetExactBudget), "gcc", "parser"),
		exact("grid-b", scale(fleetExactBudget), "gcc", "twolf"),
		exact("grid-long", scale(fleetLongBudget), "perlbmk", "vortex"),
	}
}

func newServiceFleet(ctx context.Context, seed, budget int64) (*serviceFleet, error) {
	w := &serviceFleet{pool: fleetPool(seed, budget), sampledIPC: map[string]float64{}}
	ref, err := loadReference("service-fleet", seed, budget)
	if err != nil {
		return nil, err
	}
	w.ref = ref
	// The local engine's export of each campaign is the reference every
	// service export must equal byte for byte.
	for _, spec := range w.pool {
		jobs, err := spec.Jobs()
		if err != nil {
			return nil, err
		}
		w.jobs = append(w.jobs, jobs)
		text, rs, err := localExport(ctx, spec)
		if err != nil {
			return nil, err
		}
		ref.expectText(spec.Name, text)
		var n int64
		for i := range rs.Results {
			n += coveredInsts(&rs.Results[i])
		}
		w.covered = append(w.covered, n)
	}
	return w, nil
}

// schedules gives one repetition's campaign order for each client.
// Each client runs every pooled campaign once. The r-th repetition of
// its kind, untraced or traced, rotates the pool's order by r, so a
// traced run's traced repetitions see the same orders as the untraced
// ones they alternate with. At even positions both clients submit the same
// campaign at once; at odd positions the second client runs the first
// client's next odd campaign, so one of the two finds those results
// cached. Every few repetitions each campaign has held every position:
// a run averages over a balanced set of orders rather than depending on
// one.
func (w *serviceFleet) schedules(traced bool) [fleetClients][]int {
	n := len(w.pool)
	kind := 0
	if traced {
		kind = 1
	}
	r := w.reps[kind]
	w.reps[kind]++
	var out [fleetClients][]int
	for k := 0; k < n; k++ {
		out[0] = append(out[0], (r+k)%n)
		b := k
		if k%2 == 1 {
			b = (k + 2) % n
		}
		out[1] = append(out[1], (r+b)%n)
	}
	return out
}

// localExport runs a campaign on a plain local engine and returns its
// CSV export.
func localExport(ctx context.Context, spec campaign.Spec) (string, *campaign.ResultSet, error) {
	rs, err := (&campaign.Engine{Workers: runtime.NumCPU()}).Run(ctx, spec)
	if err != nil {
		return "", nil, err
	}
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		return "", nil, err
	}
	return buf.String(), rs, nil
}

// fleet is one repetition's running service: server, listener and
// workers.
type fleet struct {
	dir     string
	server  *serve.Server
	http    *http.Server
	base    string
	trace   *routeTrace
	workers []*worker.Worker
	done    sync.WaitGroup
	// exec holds per-lease execution spans and the executed results,
	// when traced.
	mu       sync.Mutex
	leased   map[string]time.Time
	execMS   []float64
	uploadMS []float64
	results  []campaign.Result
}

// start brings up the service and its workers and waits until both
// workers are registered.
func startFleet(ctx context.Context, traced bool) (*fleet, error) {
	dir, err := tempDir("fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, leased: map[string]time.Time{}}
	a, err := auth.New(fleetTokens)
	if err != nil {
		return nil, err
	}
	f.server = serve.New(serve.Config{
		CacheDir:     filepath.Join(dir, "cache"),
		CkptDir:      filepath.Join(dir, "ckpt"),
		StateDir:     filepath.Join(dir, "state"),
		Workers:      1,
		LeaseTTL:     fleetLeaseTTL,
		OfferTimeout: fleetPatience,
		WorkerTTL:    fleetPatience,
		Auth:         a,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.server.Close()
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	var h http.Handler = f.server.Handler()
	if traced {
		f.trace = newRouteTrace(h)
		h = f.trace
	}
	f.http = &http.Server{Handler: h}
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		_ = f.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	for i := 0; i < fleetWorkers; i++ {
		wk := &worker.Worker{
			Server:      f.base,
			Name:        fmt.Sprintf("bench-%d", i),
			Ckpt:        filepath.Join(dir, fmt.Sprintf("worker-%d", i)),
			Concurrency: 1,
			Token:       "bench-worker",
		}
		if traced {
			wk.API = &worker.API{Base: f.base, HTTP: &http.Client{Transport: &uploadTimer{f: f}}}
			wk.OnLease = func(l worker.Lease) {
				f.mu.Lock()
				defer f.mu.Unlock()
				f.leased[l.ID] = time.Now()
			}
			wk.OnDone = func(l worker.Lease, res campaign.Result, err error) {
				f.mu.Lock()
				defer f.mu.Unlock()
				f.execMS = append(f.execMS, msSince(f.leased[l.ID]))
				if err == nil {
					f.results = append(f.results, res)
				}
			}
		}
		f.workers = append(f.workers, wk)
		f.done.Add(1)
		go func() {
			defer f.done.Done()
			_ = wk.Run(ctx) // returns nil after Shutdown
		}()
	}
	if err := f.waitWorkers(ctx); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// waitWorkers polls /metrics until every worker is connected.
func (f *fleet) waitWorkers(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m, err := f.scrape(ctx)
		if err == nil && m["sdiqd_workers_connected"] == fleetWorkers {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("service-fleet: workers did not register within 10s")
}

// scrape reads the service's /metrics into a name → value map.
func (f *fleet) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer bench-tenant-0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// stop shuts the workers down gracefully, drains and closes the
// server, and removes the repetition's directories.
func (f *fleet) stop() {
	for _, wk := range f.workers {
		wk.Shutdown()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.server.Drain(ctx) // nothing is running by now
	f.server.Close()
	_ = f.http.Shutdown(ctx)
	f.done.Wait()
	os.RemoveAll(f.dir)
}

// ownedCampaign is a finished campaign and its owner's credential.
type ownedCampaign struct{ id, token string }

// campaignRun is what one client saw of one campaign.
type campaignRun struct {
	pool      int
	id        string
	submitted time.Time
	cellMS    []float64
	waitMS    []float64
	exportMS  float64
	latency   float64
	csv       string
	status    *campaign.Status
	err       error
}

// runCampaign submits one campaign, follows its events and fetches its
// export.
func runCampaign(ctx context.Context, cl *serve.Client, pool int, spec campaign.Spec) campaignRun {
	r := campaignRun{pool: pool, submitted: time.Now()}
	sub, err := cl.Submit(ctx, spec)
	if err != nil {
		r.err = err
		return r
	}
	r.id = sub.ID
	err = cl.Stream(ctx, sub.ID, func(ev serve.Event) error {
		switch {
		case ev.Type == serve.EventJob && ev.Job != nil && ev.Job.State == campaign.JobRunning:
			r.waitMS = append(r.waitMS, msSince(r.submitted))
		case ev.Type == serve.EventJob && ev.Job != nil && ev.Job.State == campaign.JobDone:
			r.cellMS = append(r.cellMS, msSince(r.submitted))
		case ev.Type == serve.EventDone:
			r.status = ev.Status
			if ev.Error != "" {
				return fmt.Errorf("campaign %s failed: %s", sub.ID, ev.Error)
			}
		}
		return nil
	})
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	csv, err := cl.Export(ctx, sub.ID, "csv")
	r.exportMS = msSince(t0)
	r.latency = msSince(r.submitted)
	r.csv, r.err = string(csv), err
	return r
}

func (w *serviceFleet) rep(ctx context.Context, traced bool) (*repOut, error) {
	out := newRepOut()
	t0 := time.Now()
	schedules := w.schedules(traced)
	if err := buildInputs(w.jobs...); err != nil {
		return nil, err
	}
	f, err := startFleet(ctx, traced)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	var probe runtimeProbe
	if traced {
		probe = readRuntime()
	}
	start := time.Now()
	out.setup = start.Sub(t0)

	runs := make([][]campaignRun, fleetClients)
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &serve.Client{Base: f.base, HTTP: &http.Client{Transport: transport}, Token: fleetTokens[c].Token}
			for _, i := range schedules[c] {
				runs[c] = append(runs[c], runCampaign(ctx, cl, i, w.pool[i]))
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)

	var owned []ownedCampaign
	var cells float64
	for c, cr := range runs {
		for _, r := range cr {
			n := len(w.jobs[r.pool])
			out.attempted += n
			if r.err != nil {
				out.failed += n
				fmt.Fprintf(stderr, "service-fleet %s: %v\n", w.pool[r.pool].Name, r.err)
				continue
			}
			out.failed += w.ref.check(w.pool[r.pool].Name, r.csv, nil)
			out.insts += w.covered[r.pool]
			out.cellMS = append(out.cellMS, r.cellMS...)
			out.campaignMS = append(out.campaignMS, r.latency)
			cells += float64(n)
			owned = append(owned, ownedCampaign{r.id, fleetTokens[c].Token})
			if !traced {
				continue
			}
			out.samples["campaign.queue_wait"] = append(out.samples["campaign.queue_wait"], r.waitMS...)
			out.layer["campaign.export_ms"] += r.exportMS / float64(len(schedules[c])*fleetClients)
			if r.status != nil {
				out.layer["campaign.executed"] += float64(r.status.Executed)
				out.layer["campaign.cache_hits"] += float64(r.status.CacheHits)
				out.layer["campaign.dedup_hits"] += float64(r.status.DedupHits)
			}
		}
	}
	if !traced {
		return out, nil
	}
	probe.record(out)
	if err := w.recordService(ctx, f, out, owned, cells); err != nil {
		return nil, err
	}
	return out, nil
}

// recordService fills the service, worker, store and checkpoint layer
// figures of a traced repetition, after its timed work.
func (w *serviceFleet) recordService(ctx context.Context, f *fleet, out *repOut, owned []ownedCampaign, cells float64) error {
	m, err := f.scrape(ctx)
	if err != nil {
		return err
	}
	for _, k := range []string{"jobs_executed", "jobs_remote", "jobs_local", "jobs_fellback", "leases_granted", "leases_expired", "lease_requeues"} {
		out.layer["serve."+k] = m["sdiqd_"+k+"_total"]
	}
	out.layer["serve.ckpt_bytes_shipped"] = m["sdiqd_ckpt_bytes_shipped_total"]
	if cells > 0 {
		out.layer["serve.reuse_ratio"] = (m["sdiqd_job_cache_hits_total"] + m["sdiqd_job_dedup_hits_total"]) / cells
		out.layer["store.wal_appends_per_job"] = m["sdiqd_wal_appends_total"] / cells
	}
	if m["sdiqd_jobs_fellback_total"] > 0 || m["sdiqd_leases_expired_total"] > 0 {
		w.unsteady++
		fmt.Fprintf(stderr, "service-fleet: WARNING: %g fallbacks and %g expired leases: placement depended on timing, so this repetition did not measure the steady path\n",
			m["sdiqd_jobs_fellback_total"], m["sdiqd_leases_expired_total"])
	}
	f.trace.record(out)

	f.mu.Lock()
	out.samples["worker.exec"] = append(out.samples["worker.exec"], f.execMS...)
	out.layer["worker.upload_ms"] = median(f.uploadMS)
	var busy float64
	for _, ms := range f.execMS {
		busy += ms
	}
	out.layer["worker.busy_pct"] = 100 * busy / (float64(fleetWorkers) * float64(out.wall.Milliseconds()))
	executed := append([]campaign.Result(nil), f.results...)
	f.mu.Unlock()
	recordExecutions(out, executed)
	if err := f.recordCkpt(out, executed, m); err != nil {
		return err
	}

	// Modelled components from the service's own JSON exports.
	var mod modelled
	for _, oc := range owned {
		cl := &serve.Client{Base: f.base, Token: oc.token}
		rs, err := cl.ResultSet(ctx, oc.id)
		if err != nil {
			return err
		}
		if err := mod.add(rs); err != nil {
			return err
		}
		for i := range rs.Results {
			if r := &rs.Results[i]; r.Sampled != nil {
				w.sampledIPC[cellKey(r)] = r.Stats.IPC()
			}
		}
	}
	mod.record(out)

	store, err := ckpt.Open(filepath.Join(f.dir, "ckpt"))
	if err != nil {
		return err
	}
	var sampledJobs []campaign.Job
	for i := range w.pool {
		if w.pool[i].Sampling != nil {
			sampledJobs = append(sampledJobs, w.jobs[i]...)
		}
	}
	read, err := readArtifacts(store, sampledJobs)
	if err != nil {
		return err
	}
	out.layer["ckpt.read_mb_per_s"] = read
	return nil
}

// recordCkpt fills the checkpoint figures of the fleet. Workers keep
// their store counters private, so they are derived from what is
// published: an artifact on a worker's disk was either downloaded from
// the service or generated there, and every other sampled execution
// resumed from one.
func (f *fleet) recordCkpt(out *repOut, executed []campaign.Result, m map[string]float64) error {
	var onWorkers, workerBytes int64
	for i := range f.workers {
		s, err := ckpt.Open(filepath.Join(f.dir, fmt.Sprintf("worker-%d", i)))
		if err != nil {
			return err
		}
		n, b := s.DiskStat()
		onWorkers += n
		workerBytes += b
	}
	var sampled int64
	for i := range executed {
		if executed[i].Sampled != nil {
			sampled++
		}
	}
	generated := onWorkers - int64(out.layer["ckpt.downloads"])
	hits := sampled - generated
	out.layer["ckpt.generated"] = float64(generated)
	out.layer["ckpt.hits"] = float64(hits)
	out.layer["ckpt.hit_ratio"] = hitRatio(hits, generated)
	out.layer["ckpt.disk_bytes"] = m["sdiqd_ckpt_store_bytes"] + float64(workerBytes)
	return nil
}

// exactIPC returns the exact-simulation IPC of every cell of the pool's
// sampled campaigns.
func (w *serviceFleet) exactIPC(ctx context.Context) (map[string]float64, error) {
	var sampled []campaign.Spec
	for _, spec := range w.pool {
		if spec.Sampling != nil {
			sampled = append(sampled, spec)
		}
	}
	return exactIPC(ctx, w.ref.pin, sampled...)
}

func (w *serviceFleet) reference() *reference { return w.ref }

// finishTrace adds the sampled cells' IPC error against the exact
// reference, and how many traced repetitions left the steady path.
func (w *serviceFleet) finishTrace(ctx context.Context, values map[string]float64) error {
	exact, err := w.exactIPC(ctx)
	if err != nil {
		return err
	}
	if pct, ok := ipcErrPct(w.sampledIPC, exact); ok {
		values["ipc_err_pct"] = pct
	}
	values["serve.unsteady_reps"] = float64(w.unsteady)
	return nil
}

// routeTrace wraps the service handler and times each request by route.
type routeTrace struct {
	next http.Handler

	mu                 sync.Mutex
	ms                 map[string][]float64
	requests, errors   int
	ckptGets           int
	putBytes, getBytes int64
}

func newRouteTrace(next http.Handler) *routeTrace {
	return &routeTrace{next: next, ms: map[string][]float64{}}
}

// routeOf names a request's route, or "" for untimed routes.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/campaigns":
		return "submit"
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/events"):
		return "events"
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/export"):
		return "export"
	case r.Method == http.MethodPost && p == "/v1/leases":
		return "lease"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/result"):
		return "complete"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/checkpoints/"):
		return "ckpt_get"
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/v1/checkpoints/"):
		return "ckpt_put"
	}
	return ""
}

// statusWriter records a response's status and size.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	n, err := s.ResponseWriter.Write(b)
	s.bytes += int64(n)
	return n, err
}

// Flush keeps event streaming working through the wrapper.
func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (t *routeTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	t.next.ServeHTTP(sw, r)
	ms := msSince(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	ok := sw.code < 400
	switch {
	case route == "ckpt_get" && sw.code == http.StatusNotFound:
		// The protocol's "no artifact yet": the asking worker generates.
	case !ok:
		t.errors++
	}
	if route == "" {
		return
	}
	t.ms[route] = append(t.ms[route], ms)
	if route == "ckpt_get" && ok {
		t.ckptGets++
		t.getBytes += sw.bytes
	}
	if route == "ckpt_put" && ok {
		t.putBytes += r.ContentLength
	}
}

// record stores the route figures and the checkpoint traffic through
// the service: artifacts uploaded by workers count as written, and
// artifacts downloaded by workers as read.
func (t *routeTrace) record(out *repOut) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range routes {
		xs := t.ms[r]
		out.samples["serve.route."+r] = append(out.samples["serve.route."+r], xs...)
	}
	out.layer["serve.requests"] = float64(t.requests)
	out.layer["serve.http_errors"] = float64(t.errors)
	out.layer["ckpt.downloads"] = float64(t.ckptGets)
	out.layer["ckpt.bytes_written"] = float64(t.putBytes)
	out.layer["ckpt.bytes_read"] = float64(t.getBytes)
}

// uploadTimer times the workers' result uploads.
type uploadTimer struct{ f *fleet }

func (u *uploadTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/result") {
		return http.DefaultTransport.RoundTrip(r)
	}
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		// Count the whole exchange, then hand the body on unread.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	u.f.mu.Lock()
	u.f.uploadMS = append(u.f.uploadMS, msSince(t0))
	u.f.mu.Unlock()
	return resp, err
}

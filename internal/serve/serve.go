// Package serve is the campaign service: a long-running HTTP/JSON
// server (cmd/sdiqd) that accepts campaign.Spec submissions from many
// clients, expands and schedules their jobs on one shared bounded
// executor backed by a single on-disk result cache, deduplicates
// identical in-flight jobs fleet-wide (singleflight on the job content
// hash), streams per-job progress as NDJSON or server-sent events, and
// serves finished campaigns through the exact JSON/CSV exporters the
// CLI uses locally — so a server-side export is byte-identical to the
// same spec run with `sdiq -export`.
//
// API (all JSON):
//
//	POST /v1/campaigns               submit a campaign.Spec → 202 {id,...}
//	GET  /v1/campaigns               list campaigns
//	GET  /v1/campaigns/{id}          status snapshot with per-job detail
//	GET  /v1/campaigns/{id}/events   NDJSON stream (?format=sse for SSE)
//	GET  /v1/campaigns/{id}/export   finished ResultSet (?format=csv|json)
//	GET  /metrics                    Prometheus text metrics
//	GET  /healthz                    liveness
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/store"
)

// Config parameterises a Server.
type Config struct {
	// CacheDir is the shared on-disk result cache ("" disables caching,
	// which also disables cross-campaign result reuse — set it).
	CacheDir string
	// CkptDir is the shared checkpoint artifact store ("" disables it):
	// sampled sweep cells then share one functional-warming pass per
	// warming identity instead of each recomputing it, locally and
	// across the worker fleet (artifacts ship over /v1/checkpoints).
	CkptDir string
	// Workers bounds concurrent simulations fleet-wide (the shared
	// executor); 0 means GOMAXPROCS.
	Workers int
	// QuotaPerClient caps campaigns a single client may have active at
	// once; 0 means unlimited.
	QuotaPerClient int

	// Remote worker pool (all zero values take defaults):

	// LeaseTTL is how long a worker's job lease lives without a
	// heartbeat before the worker is presumed dead and the job is
	// re-queued. Default 15s.
	LeaseTTL time.Duration
	// OfferTimeout bounds how long a job waits on the lease queue before
	// it is reclaimed for local execution. Default: LeaseTTL.
	OfferTimeout time.Duration
	// WorkerTTL is the staleness window after which a silent registered
	// worker stops counting as connected. Default: LeaseTTL.
	WorkerTTL time.Duration
	// JobRetries is how many times a job is re-leased after a failed
	// lease (expiry, worker error, rejected upload) before falling back
	// to local execution. Default 2; negative means no retries.
	JobRetries int

	// Durability and state bounds (all zero values take defaults):

	// StateDir roots the durable control-plane state: per-campaign
	// submission records plus a write-ahead log of job-state
	// transitions. "" disables durability — a restart then forgets all
	// campaigns, exactly the pre-durability behaviour.
	StateDir string
	// SnapshotEvery is the WAL-append count between snapshot
	// compactions; 0 means store.DefaultSnapshotEvery.
	SnapshotEvery int
	// EventCompactAfter bounds a campaign's in-memory event tail before
	// older events fold into a snapshot event; 0 means the default
	// (4096). Only tests should need to lower it.
	EventCompactAfter int
	// RegistryTTL evicts finished campaigns from the registry (and their
	// durable state) this long after they finish; 0 keeps them until
	// DELETE.
	RegistryTTL time.Duration
	// CacheMaxBytes bounds the on-disk result cache, evicting least
	// recently used entries; 0 means unbounded.
	CacheMaxBytes int64
	// GCInterval is how often the registry-TTL and cache-size bounds are
	// enforced; 0 means every minute. Irrelevant when neither bound is
	// set.
	GCInterval time.Duration

	// Identity and multi-tenancy:

	// Auth, when non-nil, turns authentication on: every /v1/* request
	// must present a bearer token resolving to a principal of the
	// route's role (tenant for campaign endpoints, worker for the lease
	// and checkpoint protocol), and client identity comes from the
	// authenticated principal, never a header. Nil leaves the service
	// open, exactly the pre-auth behaviour.
	Auth *auth.Authenticator
	// TenantIsolation namespaces the result cache, in-flight dedup and
	// checkpoint store per client: tenants then never share artifacts —
	// each pays for its own simulations — and CacheMaxBytes bounds each
	// tenant's cache separately.
	TenantIsolation bool
}

// Server owns the campaign registry, the shared executor gate, the
// shared scope and the metrics. Create with New, expose with Handler,
// stop with Drain.
type Server struct {
	cfg    Config
	gate   campaign.Gate
	*scope // shared by every client; empty under tenant isolation
	met    metrics
	disp   *dispatcher
	store  *store.Store // nil when StateDir is unset or unusable

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	draining  bool // guarded by mu so no submission can slip past Drain
	seq       int
	campaigns map[string]*campaignRun
	order     []string
	active    map[string]int // running campaigns per client

	// tenants is per-client accounting plus each client's scope. Guarded
	// by tmu (not mu: tenant scopes are opened lazily on paths that also
	// take mu).
	tmu     sync.Mutex
	tenants map[string]*tenantState
}

// tenantState is one client's accounting and the scope its campaigns
// run in.
type tenantState struct {
	submitted, done, failed int64 // guarded by Server.tmu
	*scope
}

// scope is what a set of campaigns shares: one result cache directory
// with its GC handle, one checkpoint store and one in-flight dedup
// group. Server.scopeFor decides which clients share one.
type scope struct {
	cacheDir string
	rcache   *campaign.Cache // GC handle on cacheDir; nil when caching is off
	ckpt     *ckpt.Store     // nil when checkpointing is off
	flight   *campaign.Flight
}

// openScope opens a scope over the given directories ("" turns that
// store off). A store that fails to open degrades to off rather than
// refusing to serve: both are optimizations, not correctness
// dependencies. But say so — a typo'd -ckpt silently costing the fleet
// its shared warming is a debugging trap.
func openScope(cacheDir, ckptDir, who string) *scope {
	sc := &scope{cacheDir: cacheDir, flight: &campaign.Flight{}}
	var err error
	if sc.ckpt, err = ckpt.Open(ckptDir); err != nil {
		log.Printf("sdiqd: %scheckpoint store disabled: %v", who, err)
	}
	if sc.rcache, err = campaign.OpenCache(cacheDir); err != nil {
		log.Printf("sdiqd: %sresult cache GC disabled: %v", who, err)
	}
	return sc
}

// scopeFor resolves the scope client's campaigns run in; client ""
// resolves the server's shared scope. This is the one place tenant
// isolation is decided. Without it every client shares the scope rooted
// at CacheDir and CkptDir. With it each client opens a private scope
// under <dir>/tenants/<client>, and the shared scope stays empty, so no
// store, cache bound or dedup group ever spans two tenants.
func (s *Server) scopeFor(client string) *scope {
	switch {
	case !s.cfg.TenantIsolation && client == "":
		return openScope(s.cfg.CacheDir, s.cfg.CkptDir, "")
	case !s.cfg.TenantIsolation:
		return s.scope
	case client == "":
		return &scope{}
	}
	sub := func(root string) string {
		if root == "" {
			return ""
		}
		return filepath.Join(root, "tenants", client)
	}
	return openScope(sub(s.cfg.CacheDir), sub(s.cfg.CkptDir), "tenant "+client+": ")
}

// campaignRun is one submitted campaign's full lifecycle state.
type campaignRun struct {
	id        string
	client    string
	spec      campaign.Spec
	jobs      int
	submitted time.Time
	tracker   *campaign.Tracker
	hub       *hub
	scope     *scope // resolved once, at submission or recovery
	// ckptKeys are the checkpoint artifact keys this campaign's sampled
	// jobs can reference (computed once at submission). DELETE uses them
	// to evict artifacts no remaining campaign references.
	ckptKeys map[string]struct{}
	// wal is the campaign's durable transition log; nil when durability
	// is off (nil is safe to append to).
	wal *store.Log

	mu       sync.Mutex
	done     bool
	finished time.Time
	rs       *campaign.ResultSet
	err      error
}

func (rc *campaignRun) finish(rs *campaign.ResultSet, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.done, rc.finished, rc.rs, rc.err = true, time.Now().UTC(), rs, err
}

func (rc *campaignRun) state() (done bool, finished time.Time, rs *campaign.ResultSet, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.done, rc.finished, rc.rs, rc.err
}

// New returns a ready Server; callers then serve s.Handler().
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		gate:      campaign.NewGate(workers),
		met:       metrics{start: time.Now()},
		ctx:       ctx,
		cancel:    cancel,
		campaigns: make(map[string]*campaignRun),
		active:    make(map[string]int),
		tenants:   make(map[string]*tenantState),
	}
	s.scope = s.scopeFor("")
	var err error
	if s.store, err = store.Open(cfg.StateDir, cfg.SnapshotEvery); err != nil {
		log.Printf("sdiqd: durable state disabled: %v", err)
	}
	if s.store != nil && cfg.CacheDir == "" {
		log.Printf("sdiqd: durable state without a result cache: recovered campaigns will re-simulate finished jobs")
	}
	s.disp = newDispatcher(cfg, &s.met)
	s.recover()
	s.startJanitor()
	return s
}

// recover folds the durable state back into the registry. Campaigns
// that finished cleanly or were still running are resumed — re-running
// the engine turns every already-finished job into a cache hit (the
// cache is the durable home of results; the WAL only proves which jobs
// finished), re-simulates only genuinely unfinished jobs, and rebuilds
// the in-memory ResultSet so exports work again. Campaigns that failed
// terminally come back as tombstones: status, events and the recorded
// error are served, nothing re-runs.
func (s *Server) recover() {
	if s.store == nil {
		return
	}
	recs, err := s.store.Recover()
	if err != nil {
		log.Printf("sdiqd: state recovery (intact campaigns still recovered): %v", err)
	}
	// Registry and quota mutations happen under s.mu, and the resumed
	// campaigns' run goroutines start only after the whole loop: a
	// fast-finishing recovered campaign decrements s.active[client]
	// under the lock, and starting it mid-loop would race the remaining
	// increments — leaking (or double-freeing) quota slots.
	var resumed []*campaignRun
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		for _, rc := range resumed {
			go s.run(rc)
		}
	}()
	for _, rec := range recs {
		if n, ok := campaignSeq(rec.Meta.ID); ok && n > s.seq {
			s.seq = n // never reissue a recovered campaign's ID
		}
		jobs, jerr := rec.Meta.Spec.Jobs()
		if jerr != nil {
			log.Printf("sdiqd: recover %s: spec no longer expands: %v", rec.Meta.ID, jerr)
			continue
		}
		// Durable records from before name validation may carry a client
		// that the grammar now refuses (an IPv6 remote address, say);
		// sanitize before the name reaches quota maps or tenant paths.
		client := rec.Meta.Client
		if !auth.ValidName(client) {
			client = sanitizeClient(client)
		}
		sc := s.tenant(client).scope
		rc := &campaignRun{
			id:        rec.Meta.ID,
			client:    client,
			spec:      rec.Meta.Spec,
			jobs:      len(jobs),
			submitted: rec.Meta.Submitted,
			tracker:   campaign.NewTracker(jobs),
			hub:       newHub(len(jobs), s.cfg.EventCompactAfter),
			scope:     sc,
			ckptKeys:  ckptKeysOf(sc.ckpt, jobs),
		}
		s.campaigns[rc.id] = rc
		s.order = append(s.order, rc.id)

		if rec.Snap.Done && rec.Snap.Error != "" {
			// Terminal failure: restore the recorded job states and
			// replay them as events, then close the log. No ResultSet
			// survives a restart, so exports answer 422 with the error —
			// same as they did before the crash.
			rc.tracker.Restore(rec.Snap.Jobs)
			rc.done, rc.finished = true, rec.Snap.Finished
			rc.err = errors.New(rec.Snap.Error)
			rc.hub.publish(Event{Type: EventSubmitted, Campaign: rc.id})
			for i := range rec.Snap.Jobs {
				rc.hub.publish(Event{Type: EventJob, Campaign: rc.id, Job: &rec.Snap.Jobs[i]})
			}
			st := rc.tracker.Snapshot()
			st.Jobs = nil
			rc.hub.publish(Event{Type: EventDone, Campaign: rc.id, Status: &st, Error: rec.Snap.Error})
			rc.hub.close()
			continue
		}

		var rerr error
		if rc.wal, rerr = s.store.Resume(rec); rerr != nil {
			log.Printf("sdiqd: recover %s: wal resume: %v (re-running without durability)", rc.id, rerr)
		}
		s.active[rc.client]++
		s.wg.Add(1)
		s.met.campaignsRecovered.Add(1)
		s.met.campaignsActive.Add(1)
		rc.hub.publish(Event{Type: EventSubmitted, Campaign: rc.id})
		resumed = append(resumed, rc)
	}
}

// campaignSeq parses the numeric suffix of a "c%04d" campaign ID.
func campaignSeq(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "c%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// startJanitor enforces the registry-TTL and cache-size bounds on a
// timer until the server closes. No bounds, no goroutine.
func (s *Server) startJanitor() {
	if s.cfg.RegistryTTL <= 0 && s.cfg.CacheMaxBytes <= 0 {
		return
	}
	interval := s.cfg.GCInterval
	if interval <= 0 {
		interval = time.Minute
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.ctx.Done():
				return
			case <-t.C:
				s.gcOnce()
			}
		}
	}()
}

// gcOnce applies both state bounds: finished campaigns past the
// registry TTL are dropped (registry, durable state, orphaned
// checkpoint artifacts), and each scope's result cache is trimmed to
// the byte bound, LRU first — so under isolation one tenant's churn
// cannot evict another's results.
func (s *Server) gcOnce() {
	if ttl := s.cfg.RegistryTTL; ttl > 0 {
		cutoff := time.Now().Add(-ttl)
		s.mu.Lock()
		var victims []string
		for id, rc := range s.campaigns {
			if done, finished, _, _ := rc.state(); done && finished.Before(cutoff) {
				victims = append(victims, id)
			}
		}
		s.mu.Unlock()
		// Durable state goes first: a crash between the two removals
		// must forget the campaign, not resurrect a half-evicted one.
		for _, id := range victims {
			s.store.Remove(id)
			s.met.campaignsEvicted.Add(1)
		}
		type evictSet struct {
			keys []string
			sc   *scope
		}
		var evict []evictSet
		s.mu.Lock()
		for _, id := range victims {
			if keys, sc := s.dropLocked(id); len(keys) > 0 {
				evict = append(evict, evictSet{keys, sc})
			}
		}
		s.mu.Unlock()
		for _, e := range evict {
			for _, k := range e.keys {
				e.sc.ckpt.Remove(k)
			}
		}
	}
	if max := s.cfg.CacheMaxBytes; max > 0 {
		for _, sc := range s.scopes() {
			if sc.rcache == nil {
				continue
			}
			if n, _, err := sc.rcache.GC(max); err != nil {
				log.Printf("sdiqd: result cache gc: %v", err)
			} else if n > 0 {
				s.met.cacheEvictions.Add(int64(n))
			}
		}
	}
}

// tenant returns (creating if needed) the client's accounting record,
// resolving its scope on creation.
func (s *Server) tenant(client string) *tenantState {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	ts, ok := s.tenants[client]
	if !ok {
		ts = &tenantState{scope: s.scopeFor(client)}
		s.tenants[client] = ts
	}
	return ts
}

// scopes lists every distinct scope: the shared one, then each
// tenant's private one.
func (s *Server) scopes() []*scope {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	out := []*scope{s.scope}
	for _, ts := range s.tenants {
		if ts.scope != s.scope {
			out = append(out, ts.scope)
		}
	}
	return out
}

// Handler returns the service's HTTP routes. With Config.Auth set,
// every /v1/* route is gated on a bearer token of the route's role
// (tenant for the campaign surface — SSE and export included — worker
// for the lease protocol and checkpoint shipping); /metrics takes an
// optional token and /healthz stays open for load balancers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.requireRole(auth.RoleTenant, s.handleSubmit))
	mux.HandleFunc("GET /v1/campaigns", s.requireRole(auth.RoleTenant, s.handleList))
	mux.HandleFunc("GET /v1/campaigns/{id}", s.requireRole(auth.RoleTenant, s.handleStatus))
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.requireRole(auth.RoleTenant, s.handleEvents))
	mux.HandleFunc("GET /v1/campaigns/{id}/export", s.requireRole(auth.RoleTenant, s.handleExport))
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.requireRole(auth.RoleTenant, s.handleDelete))
	mux.HandleFunc("POST /v1/workers", s.requireRole(auth.RoleWorker, s.handleWorkerRegister))
	mux.HandleFunc("DELETE /v1/workers/{id}", s.requireRole(auth.RoleWorker, s.handleWorkerDeregister))
	mux.HandleFunc("POST /v1/leases", s.requireRole(auth.RoleWorker, s.handleLease))
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.requireRole(auth.RoleWorker, s.handleHeartbeat))
	mux.HandleFunc("POST /v1/leases/{id}/result", s.requireRole(auth.RoleWorker, s.handleLeaseResult))
	mux.HandleFunc("GET /v1/checkpoints/{key}", s.requireRole(auth.RoleWorker, s.handleCkptGet))
	mux.HandleFunc("PUT /v1/checkpoints/{key}", s.requireRole(auth.RoleWorker, s.handleCkptPut))
	mux.HandleFunc("GET /metrics", s.optionalAuth(s.handleMetrics))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Drain stops accepting submissions and waits for running campaigns.
// If ctx ends first the remaining campaigns are cancelled (they stop at
// job granularity) and ctx's error is returned. Drain is what SIGTERM
// triggers in cmd/sdiqd. The draining flag flips under the same lock
// handleSubmit registers under, so every accepted campaign is
// guaranteed to be inside the wait group before Drain starts waiting.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels every running campaign and waits for their goroutines
// to return, so nothing writes into the cache or state directories
// after Close.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// Submitted is the POST /v1/campaigns response.
type Submitted struct {
	ID   string `json:"id"`
	Jobs int    `json:"jobs"`
	// Convenience URLs, relative to the server root.
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
	ExportURL string `json:"export_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	jobs, err := spec.Jobs()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if len(jobs) == 0 {
		writeError(w, http.StatusBadRequest, "spec expands to no jobs")
		return
	}

	client, cerr := s.clientOf(r)
	if cerr != nil {
		writeError(w, http.StatusBadRequest, "%v", cerr)
		return
	}
	ts := s.tenant(client)
	ckptKeys := ckptKeysOf(ts.ckpt, jobs)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.campaignsRejected.Add(1)
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if q := s.cfg.QuotaPerClient; q > 0 && s.active[client] >= q {
		s.mu.Unlock()
		s.met.campaignsRejected.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests,
			"client %q already has %d active campaigns (quota %d)", client, q, q)
		return
	}
	s.seq++
	id := fmt.Sprintf("c%04d", s.seq)
	rc := &campaignRun{
		id:        id,
		client:    client,
		spec:      spec,
		jobs:      len(jobs),
		submitted: time.Now().UTC(),
		tracker:   campaign.NewTracker(jobs),
		hub:       newHub(len(jobs), s.cfg.EventCompactAfter),
		scope:     ts.scope,
		ckptKeys:  ckptKeys,
	}
	s.campaigns[id] = rc
	s.order = append(s.order, id)
	s.active[client]++
	// Registered in the wait group before releasing the lock, so a
	// concurrent Drain either rejected this submission or waits for it.
	s.wg.Add(1)
	s.mu.Unlock()

	// Persist the submission before acknowledging it. A WAL that fails
	// to open degrades this campaign to in-memory only — same trade as
	// the checkpoint store: durability is a feature, not a gate.
	var werr error
	if rc.wal, werr = s.store.Create(store.Meta{
		ID: id, Client: client, Submitted: rc.submitted, Jobs: len(jobs), Spec: spec,
	}); werr != nil {
		log.Printf("sdiqd: %s: durable state disabled for this campaign: %v", id, werr)
	}

	s.met.campaignsSubmitted.Add(1)
	s.met.campaignsActive.Add(1)
	s.tmu.Lock()
	ts.submitted++
	s.tmu.Unlock()
	rc.hub.publish(Event{Type: EventSubmitted, Campaign: id})
	go s.run(rc)

	writeJSON(w, http.StatusAccepted, Submitted{
		ID:        id,
		Jobs:      len(jobs),
		StatusURL: "/v1/campaigns/" + id,
		EventsURL: "/v1/campaigns/" + id + "/events",
		ExportURL: "/v1/campaigns/" + id + "/export",
	})
}

// run executes one campaign on the shared executor, feeding the
// tracker, event hub and metrics.
func (s *Server) run(rc *campaignRun) {
	defer s.wg.Done()
	// The runner pins remote jobs to the campaign's checkpoint store too,
	// so a worker's uploaded artifact lands in the right namespace.
	sc := rc.scope
	eng := &campaign.Engine{
		// Per-campaign parallelism: the local gate bounds in-process
		// simulations; live remote capacity is added on top so a fleet
		// actually raises throughput instead of idling behind the gate.
		Workers:  cap(s.gate) + s.disp.extraCapacity(),
		CacheDir: sc.cacheDir,
		Ckpt:     sc.ckpt,
		Flight:   sc.flight,
		Gate:     s.gate,
		Runner:   &tenantRunner{d: s.disp, ckpt: sc.ckpt}, // the fleet, or back to the engine
		OnResult: func(r campaign.Result) {
			switch {
			case r.Dedup:
				s.met.dedupHits.Add(1)
			case r.Cached:
				s.met.cacheHits.Add(1)
			default:
				s.met.jobsExecuted.Add(1)
				s.met.instsCommitted.Add(r.Stats.CommittedReal)
				s.met.simNanos.Add(r.FinishedAt.Sub(r.StartedAt).Nanoseconds())
			}
		},
		OnJobError: func(j campaign.Job, err error) {
			s.met.jobsFailed.Add(1)
		},
	}
	rc.tracker.OnChange = func(js campaign.JobStatus) {
		rc.hub.publish(Event{Type: EventJob, Campaign: rc.id, Job: &js})
		if rc.wal == nil {
			return
		}
		// The engine writes results to the cache before this callback
		// fires, so a crash between cache write and WAL append recovers
		// the job as a cache hit — never a duplicate simulation.
		if werr := rc.wal.JobChanged(js); werr != nil {
			log.Printf("sdiqd: %s: wal append: %v", rc.id, werr)
		} else {
			s.met.walAppends.Add(1)
		}
	}
	rc.tracker.Attach(eng)

	rs, err := eng.Run(s.ctx, rc.spec)
	rc.tracker.FinishSkipped()
	rc.finish(rs, err)

	// The terminal record is written only when the campaign genuinely
	// ended. A failure caused by server shutdown (drain deadline, test
	// kill — the crash-injection suite relies on this) leaves no done
	// record, so the next boot resumes the campaign instead of
	// tombstoning a failure the campaign never earned.
	if err == nil || s.ctx.Err() == nil {
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		_, finished, _, _ := rc.state()
		if werr := rc.wal.Done(errMsg, finished); werr != nil {
			log.Printf("sdiqd: %s: wal done record: %v", rc.id, werr)
		}
	}
	rc.wal.Close()

	st := rc.tracker.Snapshot()
	st.Jobs = nil // the done event carries the summary, not the roster
	done := Event{Type: EventDone, Campaign: rc.id, Status: &st}
	if err != nil {
		done.Error = err.Error()
		s.met.campaignsFailed.Add(1)
	} else {
		s.met.campaignsDone.Add(1)
	}
	rc.hub.publish(done)
	rc.hub.close()

	ts := s.tenant(rc.client)
	s.tmu.Lock()
	if err != nil {
		ts.failed++
	} else {
		ts.done++
	}
	s.tmu.Unlock()

	s.met.campaignsActive.Add(-1)
	s.mu.Lock()
	if s.active[rc.client]--; s.active[rc.client] <= 0 {
		delete(s.active, rc.client)
	}
	s.mu.Unlock()
}

// CampaignInfo is the status view of one campaign.
type CampaignInfo struct {
	ID        string          `json:"id"`
	Client    string          `json:"client,omitempty"`
	Name      string          `json:"name,omitempty"`
	Jobs      int             `json:"jobs"`
	Submitted time.Time       `json:"submitted"`
	Done      bool            `json:"done"`
	Finished  time.Time       `json:"finished,omitzero"`
	Error     string          `json:"error,omitempty"`
	Status    campaign.Status `json:"status"`
}

func (s *Server) info(rc *campaignRun, withJobs bool) CampaignInfo {
	done, finished, _, err := rc.state()
	info := CampaignInfo{
		ID:        rc.id,
		Client:    rc.client,
		Name:      rc.spec.Name,
		Jobs:      rc.jobs,
		Submitted: rc.submitted,
		Done:      done,
		Finished:  finished,
	}
	if withJobs {
		info.Status = rc.tracker.Snapshot()
	} else {
		info.Status = rc.tracker.Summary()
	}
	if err != nil {
		info.Error = err.Error()
	}
	return info
}

// lookup resolves {id} to a campaign the request's principal may see.
// A campaign owned by another tenant reads as absent — status, events,
// export and delete all answer 404, never 403, so tenants cannot probe
// each other's ID space.
func (s *Server) lookup(r *http.Request) (*campaignRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc, ok := s.campaigns[r.PathValue("id")]
	if !ok || !s.ownsCampaign(r, rc) {
		return nil, false
	}
	return rc, true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	runs := make([]*campaignRun, 0, len(s.order))
	for _, id := range s.order {
		if rc := s.campaigns[id]; s.ownsCampaign(r, rc) {
			runs = append(runs, rc)
		}
	}
	s.mu.Unlock()
	out := make([]CampaignInfo, 0, len(runs))
	for _, rc := range runs {
		out = append(out, s.info(rc, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.info(rc, true))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	streamEvents(w, r, rc.hub)
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	done, _, rs, cerr := rc.state()
	if !done {
		writeError(w, http.StatusConflict, "campaign %s is still running", rc.id)
		return
	}
	if rs == nil {
		msg := "campaign produced no results"
		if cerr != nil {
			msg = cerr.Error()
		}
		writeError(w, http.StatusUnprocessableEntity, "campaign %s: %s", rc.id, msg)
		return
	}
	var err error
	switch format := r.URL.Query().Get("format"); format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		err = rs.WriteCSV(w)
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		err = rs.WriteJSON(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (csv, json)", format)
		return
	}
	if err != nil {
		// Headers are gone and part of the body may be written; abort
		// the connection so the client sees a transport error instead
		// of a clean EOF on a truncated export.
		panic(http.ErrAbortHandler)
	}
}

// ckptKeysOf derives the distinct checkpoint keys a job roster can
// reference; nil when the store is off (no GC bookkeeping needed then).
func ckptKeysOf(store *ckpt.Store, jobs []campaign.Job) map[string]struct{} {
	if store == nil {
		return nil
	}
	keys := make(map[string]struct{})
	for i := range jobs {
		if k, err := campaign.CheckpointKey(&jobs[i]); err == nil && k != "" {
			keys[k] = struct{}{}
		}
	}
	if len(keys) == 0 {
		return nil
	}
	return keys
}

// handleMetrics renders the counters plus the dispatcher's live worker
// and lease gauges, the checkpoint store's counters, and — when
// identity is in play — per-tenant labeled rows.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rows := append(s.met.rows(), s.disp.rows()...)
	writeRows(w, append(rows, s.ckptRows()...))
	writeLabelRows(w, s.tenantRows())
}

// tenantRows renders sdiqd_tenant_* per-client rows. They exist only
// when auth or isolation is on — an open single-user service keeps its
// scrape output exactly as before.
func (s *Server) tenantRows() []labelRow {
	if s.cfg.Auth == nil && !s.cfg.TenantIsolation {
		return nil
	}
	s.mu.Lock()
	active := make(map[string]int, len(s.active))
	for c, n := range s.active {
		active[c] = n
	}
	s.mu.Unlock()

	s.tmu.Lock()
	defer s.tmu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for c := range s.tenants {
		names = append(names, c)
	}
	sort.Strings(names)
	var rows []labelRow
	for _, c := range names {
		ts := s.tenants[c]
		lbl := fmt.Sprintf(`{tenant=%q}`, c)
		rows = append(rows,
			labelRow{"sdiqd_tenant_campaigns_submitted_total", "Campaigns submitted, by tenant.", "counter", lbl, float64(ts.submitted)},
			labelRow{"sdiqd_tenant_campaigns_done_total", "Campaigns finished successfully, by tenant.", "counter", lbl, float64(ts.done)},
			labelRow{"sdiqd_tenant_campaigns_failed_total", "Campaigns finished with an error, by tenant.", "counter", lbl, float64(ts.failed)},
			labelRow{"sdiqd_tenant_campaigns_active", "Campaigns currently running, by tenant.", "gauge", lbl, float64(active[c])},
		)
		if ts.scope != s.scope && ts.ckpt != nil {
			artifacts, bytes := ts.ckpt.DiskStat()
			rows = append(rows,
				labelRow{"sdiqd_tenant_ckpt_artifacts", "Checkpoint artifacts on disk, by tenant.", "gauge", lbl, float64(artifacts)},
				labelRow{"sdiqd_tenant_ckpt_store_bytes", "Checkpoint artifact bytes on disk, by tenant.", "gauge", lbl, float64(bytes)},
			)
		}
	}
	return rows
}

// ckptRows renders the checkpoint stores' live metrics, summed over
// every scope (no store → no rows, so scraping a store-less server is
// unchanged).
func (s *Server) ckptRows() []row {
	var (
		m                ckpt.Metrics
		artifacts, bytes int64
		stores           int
	)
	for _, sc := range s.scopes() {
		if sc.ckpt == nil {
			continue
		}
		stores++
		sm := sc.ckpt.Metrics()
		m.Hits += sm.Hits
		m.Misses += sm.Misses
		m.Generated += sm.Generated
		m.Evicted += sm.Evicted
		a, b := sc.ckpt.DiskStat()
		artifacts += a
		bytes += b
	}
	if stores == 0 {
		return nil
	}
	return []row{
		{"sdiqd_ckpt_hits_total", "Checkpoint artifacts resumed from the store.", "counter", float64(m.Hits)},
		{"sdiqd_ckpt_misses_total", "Checkpoint artifact lookups that missed.", "counter", float64(m.Misses)},
		{"sdiqd_ckpt_generated_total", "Checkpoint artifacts generated and published locally.", "counter", float64(m.Generated)},
		{"sdiqd_ckpt_evicted_total", "Checkpoint artifacts evicted (GC or corruption).", "counter", float64(m.Evicted)},
		{"sdiqd_ckpt_bytes_shipped_total", "Checkpoint artifact bytes shipped to or from workers over HTTP.", "counter", float64(s.met.ckptBytesShipped.Load())},
		{"sdiqd_ckpt_artifacts", "Checkpoint artifacts currently on disk.", "gauge", float64(artifacts)},
		{"sdiqd_ckpt_store_bytes", "Total bytes of checkpoint artifacts on disk.", "gauge", float64(bytes)},
	}
}

// handleDelete drops a finished campaign from the in-memory registry —
// its tracker, event log and result set become garbage immediately —
// and garbage-collects checkpoint artifacts no remaining campaign
// references. Running campaigns are refused: cancel-by-delete would
// silently change other observers' results, and the engine owns
// cancellation. Exports wanted later must be fetched (or re-submitted —
// the disk cache makes that cheap) before deletion.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rc, ok := s.campaigns[id]
	if !ok || !s.ownsCampaign(r, rc) {
		// Another tenant's campaign answers 404, not 403: the ID space
		// must not leak across tenants.
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	if done, _, _, _ := rc.state(); !done {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "campaign %s is still running", id)
		return
	}
	orphans, sc := s.dropLocked(id)
	s.mu.Unlock()
	s.store.Remove(id)
	for _, k := range orphans {
		sc.ckpt.Remove(k)
	}
	s.met.campaignsDeleted.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// dropLocked removes a campaign from the registry (the caller holds
// s.mu) and returns the checkpoint keys orphaned by its departure — the
// campaign's keys minus every key a surviving campaign (running or
// finished) of the same scope can still reference — plus that scope,
// whose store the caller evicts them from. A campaign in another scope
// holds its own copy in its own store.
func (s *Server) dropLocked(id string) (orphans []string, sc *scope) {
	rc, ok := s.campaigns[id]
	if !ok {
		return nil, nil
	}
	delete(s.campaigns, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			break
		}
	}
	for k := range rc.ckptKeys {
		referenced := false
		for _, other := range s.campaigns {
			if other.scope != rc.scope {
				continue
			}
			if _, ok := other.ckptKeys[k]; ok {
				referenced = true
				break
			}
		}
		if !referenced {
			orphans = append(orphans, k)
		}
	}
	return orphans, rc.scope
}

// errCampaignFailed wraps a failed campaign's server-side error for
// clients.
var errCampaignFailed = errors.New("campaign failed")

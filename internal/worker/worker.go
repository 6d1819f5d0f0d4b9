package worker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/ckpt"
)

// Worker is the pull-based remote simulation worker: it registers with
// a campaign server, leases jobs, executes them with
// campaign.ExecuteStored against a local scratch cache and checkpoint
// store, heartbeats while they run, and uploads the results. Run drives it until ctx ends (hard stop: in-flight jobs
// are abandoned and the server re-leases them) or Shutdown is called
// (graceful: stop leasing, finish in-flight jobs, deregister).
type Worker struct {
	// Server is the sdiqd base URL.
	Server string
	// Name labels the worker (hostname when empty).
	Name string
	// Scratch is the local result cache directory ("" = none): a job the
	// worker has run before is answered from disk without re-simulating.
	Scratch string
	// Ckpt is the local checkpoint artifact store directory ("" = none):
	// sampled jobs whose lease names a checkpoint key download the
	// sweep's shared warm state from the server (or generate and push it
	// back) instead of each re-warming from scratch.
	Ckpt string
	// Concurrency is how many leases run at once (min 1).
	Concurrency int
	// ScratchMaxBytes bounds the scratch cache, evicting least recently
	// used results after each store; 0 means unbounded.
	ScratchMaxBytes int64
	// RetryBase/RetryMax shape the jittered exponential backoff used for
	// registration and lease-poll failures (defaults 500ms / 15s). A
	// coordinator restart is survived by waiting, not by dying.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Token is the worker-role bearer credential, required against a
	// server running with -auth; "" sends no Authorization header.
	Token string
	// API overrides the protocol client (tests); nil builds one from
	// Server.
	API *API

	// Logf, when non-nil, receives worker lifecycle logging.
	Logf func(format string, args ...any)
	// OnLease, when non-nil, observes every granted lease before the job
	// executes — the failure-injection tests' kill hook.
	OnLease func(Lease)
	// OnDone, when non-nil, observes every execution outcome before its
	// upload.
	OnDone func(l Lease, res campaign.Result, err error)

	// insts/simNanos accumulate completed-job work for the heartbeat's
	// insts-per-second progress figure.
	insts    atomic.Int64
	simNanos atomic.Int64
	// reconnects counts re-registrations after the server forgot us —
	// reported on the wire so the coordinator can surface fleet churn.
	reconnects atomic.Int64

	quitOnce sync.Once
	quit     chan struct{}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// quitCh lazily builds the graceful-shutdown channel so Shutdown works
// whether or not Run has started.
func (w *Worker) quitCh() chan struct{} {
	w.quitOnce.Do(func() { w.quit = make(chan struct{}) })
	return w.quit
}

// Shutdown stops the worker gracefully: no new leases are taken,
// in-flight jobs finish and upload, then Run deregisters and returns.
// Safe to call from any goroutine, more than once, before or after Run.
func (w *Worker) Shutdown() {
	ch := w.quitCh()
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// Backoff returns the nth (0-based) delay of a jittered exponential
// retry schedule: base doubled n times and capped at ceil, then scaled
// by a random factor in [0.75, 1.25) so a restarted coordinator isn't
// stampeded by every client retrying at once. base and ceil must be
// positive.
func Backoff(n int, base, ceil time.Duration) time.Duration {
	d := base
	for i := 0; i < n && d < ceil; i++ {
		d *= 2
	}
	d = min(d, ceil)
	return d*3/4 + time.Duration(rand.Int63n(max(int64(d)/2, 1)))
}

// backoff is the worker's retry delay: Backoff over RetryBase and
// RetryMax, defaulting to 500ms and 15s.
func (w *Worker) backoff(n int) time.Duration {
	base, ceil := w.RetryBase, w.RetryMax
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 15 * time.Second
	}
	return Backoff(n, base, ceil)
}

// register joins (or rejoins) the server, retrying transient failures
// with jittered backoff until ctx ends. Terminal 4xx refusals —
// protocol version drift — return immediately: waiting cannot fix them.
func (w *Worker) register(ctx context.Context, api *API, name string, conc int, reconnect bool) (RegisterResponse, error) {
	req := RegisterRequest{Name: name, Capacity: conc}
	if reconnect {
		req.Reconnects = int(w.reconnects.Add(1))
	}
	for attempt := 0; ; attempt++ {
		reg, err := api.Register(ctx, req)
		if err == nil {
			return reg, nil
		}
		if terminal(err) || ctx.Err() != nil {
			return RegisterResponse{}, err
		}
		w.logf("register: %v (retrying)", err)
		select {
		case <-time.After(w.backoff(attempt)):
		case <-ctx.Done():
			return RegisterResponse{}, ctx.Err()
		}
	}
}

// rate returns the worker's committed-instructions-per-second over its
// completed jobs (0 until the first one lands).
func (w *Worker) rate() float64 {
	ns := w.simNanos.Load()
	if ns <= 0 {
		return 0
	}
	return float64(w.insts.Load()) / (float64(ns) / float64(time.Second))
}

// Run registers and serves leases until ctx ends or Shutdown is called.
// Cancelling ctx is a hard stop — running jobs abort mid-simulation and
// nothing more is sent, exactly like a crashed machine; the server's
// lease TTL recovers their jobs.
func (w *Worker) Run(ctx context.Context) error {
	api := w.API
	if api == nil {
		api = NewAPI(w.Server)
	}
	if api.Token == "" {
		api.Token = w.Token
	}
	conc := w.Concurrency
	if conc < 1 {
		conc = 1
	}
	name := w.Name
	if name == "" {
		name, _ = os.Hostname()
	}
	scratch, err := campaign.OpenCache(w.Scratch)
	if err != nil {
		return fmt.Errorf("worker: scratch cache: %w", err)
	}
	store, err := ckpt.Open(w.Ckpt)
	if err != nil {
		// Checkpointing is an optimization: a broken store directory
		// degrades to warm-from-scratch execution, not a dead worker.
		w.logf("checkpoint store disabled: %v", err)
		store = nil
	}

	// pollCtx ends on either stop signal, cutting the long-poll (and any
	// registration backoff) short.
	pollCtx, cancelPoll := context.WithCancel(ctx)
	defer cancelPoll()
	quit := w.quitCh()
	go func() {
		select {
		case <-quit:
			cancelPoll()
		case <-pollCtx.Done():
		}
	}()

	// Registration retries transient failures forever: a worker that
	// boots before its coordinator (or during a coordinator restart)
	// waits, it doesn't die.
	reg, err := w.register(pollCtx, api, name, conc, false)
	if err != nil {
		return err
	}
	w.logf("registered as %s (lease ttl %dms, heartbeat %dms)",
		reg.WorkerID, reg.LeaseTTLMS, reg.HeartbeatMS)

	slots := make(chan struct{}, conc)
	var wg sync.WaitGroup
	var regErr error
	fails := 0
lease:
	for {
		select {
		case slots <- struct{}{}:
		case <-pollCtx.Done():
			break lease
		}
		l, ok, err := api.Lease(pollCtx, LeaseRequest{WorkerID: reg.WorkerID, WaitMS: reg.MaxPollMS})
		if err != nil {
			<-slots
			if pollCtx.Err() != nil {
				break lease
			}
			if errors.Is(err, ErrUnknownWorker) {
				// The server lost our registration (it restarted):
				// register again instead of retrying a doomed identity.
				nr, rerr := w.register(pollCtx, api, name, conc, true)
				if rerr != nil {
					if pollCtx.Err() != nil {
						break lease
					}
					regErr = rerr // terminal refusal: protocol drift
					break lease
				}
				w.logf("server forgot us; re-registered as %s", nr.WorkerID)
				reg = nr
				fails = 0
				continue
			}
			fails++
			w.logf("lease poll: %v (retrying)", err)
			select {
			case <-time.After(w.backoff(fails - 1)):
			case <-pollCtx.Done():
				break lease
			}
			continue
		}
		fails = 0
		if !ok {
			<-slots
			continue
		}
		wg.Add(1)
		go func(l Lease) {
			defer wg.Done()
			defer func() { <-slots }()
			w.serve(ctx, api, reg, scratch, store, l)
		}(l)
	}
	wg.Wait()
	if regErr != nil {
		return regErr
	}

	// Deregister only on the graceful path. A hard stop (ctx cancelled)
	// models a crashed machine: it says nothing, and the server's lease
	// TTL is the cleanup — which is exactly what the failure-injection
	// suite exercises.
	if ctx.Err() == nil {
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := api.Deregister(dctx, reg.WorkerID); err == nil {
			w.logf("deregistered %s", reg.WorkerID)
		}
	}
	return ctx.Err()
}

// serve executes one lease: scratch-cache check, checkpoint artifact
// fetch, heartbeat loop, execution, upload (plus a best-effort artifact
// push when this worker generated the sweep's warm state). A worker
// whose ctx dies mid-job goes silent — no upload, no error report —
// which is precisely the failure the server's lease expiry exists to
// absorb.
func (w *Worker) serve(ctx context.Context, api *API, reg RegisterResponse, scratch *campaign.Cache, store *ckpt.Store, l Lease) {
	if w.OnLease != nil {
		w.OnLease(l)
	}
	if ctx.Err() != nil {
		return // killed before the job started; the lease will expire
	}
	job := l.Job.Job()
	w.logf("lease %s: %s (attempt %d)", l.ID, job.ID(), l.Attempt)

	// Conformance self-check: the lease's key must be the hash this
	// worker derives from the same job. A mismatch means protocol or
	// version drift — refuse rather than poison the shared cache.
	key, err := campaign.JobKey(&job, l.Job.Params)
	if err != nil || key != l.Key {
		if err == nil {
			err = fmt.Errorf("job key mismatch: lease says %.12s, worker derives %.12s", l.Key, key)
		}
		w.upload(ctx, api, reg.WorkerID, l, campaign.Result{}, fmt.Errorf("worker %s: %w", reg.WorkerID, err))
		return
	}

	if res, ok := scratch.Get(key); ok {
		res.Point = job.Point
		w.logf("lease %s: scratch hit", l.ID)
		if w.OnDone != nil {
			w.OnDone(l, res, nil)
		}
		w.upload(ctx, api, reg.WorkerID, l, res, nil)
		return
	}

	// Checkpoint artifact: fetch the sweep's shared warm state before
	// executing. A miss (first cell of the sweep landing here, or a
	// store-less server) is fine — the execution generates the artifact
	// locally and pushes it back afterwards. Failures at every step
	// degrade to warm-from-scratch.
	ckptKey := l.CkptKey
	if store == nil {
		ckptKey = ""
	}
	fetched := false
	if ckptKey != "" && !store.Has(ckptKey) {
		if data, err := api.FetchCkpt(ctx, ckptKey); err != nil {
			w.logf("lease %s: no artifact %.12s… from server: %v", l.ID, ckptKey, err)
		} else if err := store.WriteRaw(ckptKey, data); err != nil {
			w.logf("lease %s: artifact %.12s… rejected locally: %v", l.ID, ckptKey, err)
		} else {
			fetched = true
			w.logf("lease %s: fetched artifact %.12s… (%d bytes)", l.ID, ckptKey, len(data))
		}
	}

	// Heartbeat until the job finishes; a Cancel response (or a gone
	// lease) aborts the execution.
	jobCtx, cancelJob := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	started := time.Now()
	go func() {
		defer close(hbDone)
		every := time.Duration(reg.HeartbeatMS) * time.Millisecond
		if every <= 0 {
			every = 5 * time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-t.C:
			}
			resp, err := api.Heartbeat(jobCtx, l.ID, Heartbeat{
				WorkerID:    reg.WorkerID,
				ElapsedMS:   time.Since(started).Milliseconds(),
				InstsPerSec: w.rate(),
			})
			if err == ErrLeaseGone || resp.Cancel {
				w.logf("lease %s: server cancelled (gone=%v)", l.ID, err == ErrLeaseGone)
				cancelJob()
				return
			}
			// Transient heartbeat errors are survivable as long as one
			// lands within the lease TTL; keep trying.
		}
	}()

	res, execErr := campaign.ExecuteStored(jobCtx, &job, store)
	cancelJob()
	<-hbDone

	if ctx.Err() != nil {
		return // hard-stopped: vanish; the server re-leases the job
	}
	if execErr == nil {
		w.insts.Add(res.Stats.CommittedReal)
		w.simNanos.Add(res.FinishedAt.Sub(res.StartedAt).Nanoseconds())
		_ = scratch.Put(key, res)
		if w.ScratchMaxBytes > 0 {
			_, _, _ = scratch.GC(w.ScratchMaxBytes)
		}
		if ckptKey != "" && !fetched && store.Has(ckptKey) {
			// This worker generated the sweep's warm state: publish it so
			// the server and the rest of the fleet skip their warming.
			// Best-effort — the server may refuse (another cell beat us
			// to it) and correctness never depends on the push landing.
			if data, err := store.ReadRaw(ckptKey); err == nil {
				if err := api.PushCkpt(ctx, ckptKey, data); err != nil {
					w.logf("lease %s: artifact push: %v", l.ID, err)
				} else {
					w.logf("lease %s: pushed artifact %.12s… (%d bytes)", l.ID, ckptKey, len(data))
				}
			}
		}
	}
	if w.OnDone != nil {
		w.OnDone(l, res, execErr)
	}
	w.upload(ctx, api, reg.WorkerID, l, res, execErr)
}

// upload sends a lease's outcome, retrying briefly: the lease TTL gives
// room, and if every attempt fails the server's expiry re-queues the
// job anyway — correctness never depends on the upload landing.
func (w *Worker) upload(ctx context.Context, api *API, workerID string, l Lease, res campaign.Result, execErr error) {
	up := ResultUpload{WorkerID: workerID, Key: l.Key}
	if execErr != nil {
		up.Error = execErr.Error()
	} else {
		up.Result = &res
	}
	for attempt := 0; attempt < 3; attempt++ {
		if ctx.Err() != nil {
			return
		}
		_, err := api.Complete(ctx, l.ID, up)
		if err == nil || err == ErrLeaseGone {
			if err == ErrLeaseGone {
				w.logf("lease %s: upload after expiry, discarded by server", l.ID)
			}
			return
		}
		if terminal(err) {
			// A 4xx (e.g. the server rejected the result's identity) is
			// final; re-sending identical bytes can only earn a 410 —
			// the server has already re-queued or resolved the job.
			w.logf("lease %s: upload refused: %v", l.ID, err)
			return
		}
		w.logf("lease %s: upload failed: %v", l.ID, err)
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return
		}
	}
}

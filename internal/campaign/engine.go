package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/power"
)

// Runner is the engine's execution indirection: it is handed every job
// that survived the cache and dedup layers and decides where the job
// actually simulates — on a remote worker fleet (the campaign service's
// dispatcher), or back on the engine by returning ErrRunLocal. key is
// the job's content hash ("" when the job is unhashable) and params the
// campaign's power parameters, which are part of that hash; a remote
// runner ships both so the far side can validate the work against the
// same identity the cache uses.
//
// The returned Result is cached and delivered exactly as an inline
// execution's would be. A Runner must honour ctx: when it ends the job
// is abandoned, and the runner returns ctx's error.
type Runner interface {
	RunJob(ctx context.Context, job *Job, key string, params power.Params) (Result, error)
}

// ErrRunLocal is returned by a Runner to hand a job back to the engine,
// which then runs it inline under its Gate and checkpoint store.
var ErrRunLocal = errors.New("campaign: run job locally")

// Engine executes campaigns. The zero value runs with GOMAXPROCS workers
// and no cache; set CacheDir to persist results across runs.
type Engine struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// CacheDir enables the on-disk result cache when non-empty.
	CacheDir string
	// OnResult, when non-nil, observes every completed result as it
	// lands (from worker goroutines, serialised by the engine). CLI
	// drivers use it for progress reporting.
	OnResult func(Result)
	// OnJobStart, when non-nil, observes every job as its execution
	// begins — after a cache miss and dedup, before the Runner or the
	// Gate sees it. Serialised like OnResult.
	OnJobStart func(Job)
	// OnJobError, when non-nil, observes per-job failures (serialised).
	// Cancellation-induced skips are not failures and are not reported.
	OnJobError func(Job, error)
	// Flight, when non-nil, deduplicates concurrent executions of
	// identical jobs (same JobKey) across every engine sharing it.
	Flight *Flight
	// Gate, when non-nil, bounds concurrent inline simulations across
	// every engine sharing it; cache and dedup hits, and jobs a Runner
	// keeps, bypass it.
	Gate Gate
	// Runner, when non-nil, is offered every cache-missed job first. The
	// engine still owns caching and dedup: the runner only sees jobs that
	// genuinely need executing, and its results enter the shared cache
	// like any other. A job it returns ErrRunLocal for runs inline.
	Runner Runner
	// Ckpt, when non-nil, is the checkpoint artifact store inline
	// executions run against (ExecuteBatchStored): sampled cells of a
	// sweep share one warming pass per CheckpointKey instead of each
	// recomputing it.
	Ckpt *ckpt.Store
	// Lockstep plans sampled jobs that share a CheckpointKey (one
	// functional identity: benchmark, seed, budget, warming class,
	// geometry, regime) into lockstep batches: one emulator + warming
	// stream fans each detailed window out to every cell's core
	// (sample.RunLockstepStored), so the sweep axis becomes a batch
	// dimension of the hot loop. Per-cell JobKeys, caching, delivery and
	// exports are unchanged, and per-cell results are bit-identical to
	// the per-job path. It only changes how units are planned: a batch
	// and a solo job run through the same unit path. Only inline local
	// execution batches: an engine with a Runner (the campaign service)
	// or a shared Flight plans units of one job, where fleet-wide dedup
	// owns the sharing. Batches never span Run calls, so two tenants'
	// campaigns can never share one.
	Lockstep bool
}

// lockstepUnits plans the campaign's work units: each unit is a list of
// job indices executed together. Jobs sharing a non-empty CheckpointKey
// form one lockstep batch (in deterministic first-seen order); exact
// and unkeyable jobs stay solo.
func lockstepUnits(jobs []Job) [][]int {
	groups := map[string]int{}
	var units [][]int
	for i := range jobs {
		var key string
		if jobs[i].Sampling != nil {
			key, _ = CheckpointKey(&jobs[i])
		}
		if key == "" {
			units = append(units, []int{i})
			continue
		}
		if u, ok := groups[key]; ok {
			units[u] = append(units[u], i)
		} else {
			groups[key] = len(units)
			units = append(units, []int{i})
		}
	}
	return units
}

// jobQueue is one worker's share of the campaign. The owner pops from
// the front; idle workers steal from the back, so an owner and a thief
// contend only on the last unit of a queue.
type jobQueue struct {
	mu   sync.Mutex
	jobs []int // indices into the campaign's work-unit slice
}

func (q *jobQueue) pop() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return 0, false
	}
	idx := q.jobs[0]
	q.jobs = q.jobs[1:]
	return idx, true
}

func (q *jobQueue) steal() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return 0, false
	}
	idx := q.jobs[len(q.jobs)-1]
	q.jobs = q.jobs[:len(q.jobs)-1]
	return idx, true
}

// Run expands the spec and executes every job. The returned ResultSet
// lists completed results in the spec's deterministic job order
// regardless of completion order or worker count.
//
// On the first job error the engine cancels the campaign: in-flight jobs
// finish, queued jobs are skipped and counted in ResultSet.Skipped, and
// the error return joins every job error observed (errors.Join). The
// partial ResultSet is returned alongside the error so a driver can
// still export what completed. Cancelling ctx stops the campaign the
// same way and surfaces ctx's error.
func (e *Engine) Run(ctx context.Context, spec Spec) (*ResultSet, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	cache, err := OpenCache(e.CacheDir)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Spec: spec}
	if len(jobs) == 0 {
		return rs, nil
	}

	// Work units: normally one job each; with lockstep active, jobs
	// sharing a functional identity form one multi-cell batch unit.
	// Engines with a Runner or a shared Flight schedule per job — there
	// the service dispatcher and fleet-wide dedup own the sharing.
	var units [][]int
	if e.Lockstep && e.Runner == nil && e.Flight == nil {
		units = lockstepUnits(jobs)
	} else {
		units = make([][]int, len(jobs))
		for i := range jobs {
			units[i] = []int{i}
		}
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	queues := make([]*jobQueue, workers)
	for w := range queues {
		queues[w] = &jobQueue{}
	}
	for i := range units {
		q := queues[i%workers]
		q.jobs = append(q.jobs, i)
	}

	results := make([]Result, len(jobs))
	filled := make([]bool, len(jobs))
	var (
		mu        sync.Mutex // guards errs, counters, callbacks
		errs      []error
		executed  int
		cacheHits int
		dedupHits int
	)

	// deliver records a finished job and fires OnResult; how selects the
	// counter the job lands in.
	const (
		howExecuted = iota
		howCached
		howDedup
	)
	deliver := func(idx int, res Result, how int) {
		mu.Lock()
		results[idx], filled[idx] = res, true
		switch how {
		case howCached:
			cacheHits++
		case howDedup:
			dedupHits++
		default:
			executed++
		}
		if e.OnResult != nil {
			e.OnResult(res)
		}
		mu.Unlock()
	}

	// runUnit executes one work unit. Cells the cache serves leave the
	// unit first; the rest run as ONE execution (a lockstep batch is one
	// simulation's worth of functional work — that sharing is the point)
	// and are delivered, cached or failed cell by cell.
	runUnit := func(unit []int) {
		var run []int
		var keys []string
		for _, idx := range unit {
			var key string
			if cache != nil || e.Flight != nil {
				// Unhashable jobs still run; they just can't be cached
				// or deduplicated.
				key, _ = JobKey(&jobs[idx], spec.Params)
			}
			if res, ok := cache.Get(key); ok {
				// The key omits the sweep point (it is encoded in the
				// derived config); restamp the requester's coordinates.
				res.Point = jobs[idx].Point
				deliver(idx, res, howCached)
				continue
			}
			run, keys = append(run, idx), append(keys, key)
		}
		if len(run) == 0 {
			return
		}
		// execute is the one path that simulates: it offers the job to the
		// Runner, and runs it inline under one Gate slot when there is no
		// Runner or the Runner hands it back; successes enter the cache.
		execute := func() ([]Result, []error) {
			if e.OnJobStart != nil {
				mu.Lock()
				for _, idx := range run {
					e.OnJobStart(jobs[idx])
				}
				mu.Unlock()
			}
			results, cerrs := make([]Result, len(run)), make([]error, len(run))
			if e.Runner != nil {
				// Engines with a Runner plan units of one job.
				results[0], cerrs[0] = e.Runner.RunJob(ctx, &jobs[run[0]], keys[0], spec.Params)
			}
			if e.Runner == nil || errors.Is(cerrs[0], ErrRunLocal) {
				results, cerrs = e.runInline(ctx, jobs, run)
			}
			for i, err := range cerrs {
				if err == nil {
					// A failed write only costs the next run a re-simulation.
					_ = cache.Put(keys[i], results[i])
				}
			}
			return results, cerrs
		}
		var (
			results []Result
			cerrs   []error
			shared  bool
		)
		if e.Flight != nil && keys[0] != "" {
			// Engines with a Flight plan units of one job. The flight
			// re-checks the cache: a concurrent identical job may have
			// finished and written its entry since our miss.
			res, sh, err := e.Flight.Do(ctx, keys[0], func() (Result, error) {
				if res, ok := cache.Get(keys[0]); ok {
					res.Point = jobs[run[0]].Point
					return res, nil
				}
				results, cerrs := execute()
				return results[0], cerrs[0]
			})
			results, cerrs, shared = []Result{res}, []error{err}, sh
		} else {
			results, cerrs = execute()
		}
		for i, idx := range run {
			if err := cerrs[i]; err != nil {
				// A failed cell sinks only itself; its batchmates land.
				// A cell cancelled before or while running is skipped,
				// not failed.
				if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
					mu.Lock()
					errs = append(errs, err)
					if e.OnJobError != nil {
						e.OnJobError(jobs[idx], err)
					}
					mu.Unlock()
					cancel()
				}
				continue
			}
			res, how := results[i], howExecuted
			switch {
			case shared:
				// Another caller's execution (possibly of a job with a
				// different sweep point but identical derived config):
				// restamp our coordinates, as for a cache hit.
				res.Point = jobs[idx].Point
				res.Dedup = true
				how = howDedup
			case res.Cached:
				how = howCached
			}
			deliver(idx, res, how)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				idx, ok := queues[w].pop()
				for off := 1; !ok && off < workers; off++ {
					idx, ok = queues[(w+off)%workers].steal()
				}
				if !ok {
					return
				}
				runUnit(units[idx])
			}
		}(w)
	}
	wg.Wait()

	rs.Executed, rs.CacheHits, rs.DedupHits = executed, cacheHits, dedupHits
	rs.Results = make([]Result, 0, len(jobs))
	for i := range results {
		if filled[i] {
			rs.Results = append(rs.Results, results[i])
		} else {
			rs.Skipped++
		}
	}
	rs.reindex()
	if len(errs) > 0 {
		if rs.Skipped > 0 {
			errs = append(errs, fmt.Errorf("campaign: %d job(s) skipped after cancellation", rs.Skipped))
		}
		return rs, errors.Join(errs...)
	}
	if err := ctx.Err(); err != nil {
		return rs, err
	}
	return rs, nil
}

// runInline simulates the jobs at run in-process, as one batch, holding
// one Gate slot.
func (e *Engine) runInline(ctx context.Context, jobs []Job, run []int) ([]Result, []error) {
	if e.Gate != nil {
		if err := e.Gate.Acquire(ctx); err != nil {
			cerrs := make([]error, len(run))
			for i := range cerrs {
				cerrs[i] = err
			}
			return make([]Result, len(run)), cerrs
		}
		defer e.Gate.Release()
	}
	bjobs := make([]*Job, len(run))
	for i, idx := range run {
		bjobs[i] = &jobs[idx]
	}
	return ExecuteBatchStored(ctx, bjobs, e.Ckpt)
}

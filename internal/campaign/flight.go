package campaign

import (
	"context"
	"errors"
	"sync"
)

// Flight deduplicates concurrent executions of identical jobs: callers
// that ask for the same key while an execution is in flight wait for it
// and share its result instead of simulating again. One Flight can be
// shared by any number of Engines (the campaign service hands every
// campaign the same group), so two clients sweeping overlapping grids
// each simulate a shared cell at most once fleet-wide. The zero value is
// ready to use.
//
// Flight covers the in-flight window only: a completed call is
// forgotten, and a later identical request relies on the engine's disk
// cache for reuse. The strict at-most-once guarantee therefore needs
// Flight and a shared CacheDir together, which is how the service runs.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{} // closed when res/err are final
	res  Result
	err  error
}

// Do executes fn exactly once among all concurrent callers with the same
// key, returning fn's result to every waiter. shared reports that the
// result came from another caller's execution (a dedup hit).
//
// Cancellation is per caller: a waiter whose own ctx ends stops waiting
// with ctx's error, and if the executing caller was cancelled the
// survivors retry (one of them becoming the new executor) rather than
// inheriting a cancellation that was never theirs.
func (f *Flight) Do(ctx context.Context, key string, fn func() (Result, error)) (res Result, shared bool, err error) {
	for {
		f.mu.Lock()
		if f.calls == nil {
			f.calls = make(map[string]*flightCall)
		}
		if c, ok := f.calls[key]; ok {
			f.mu.Unlock()
			select {
			case <-c.done:
				if isCancellation(c.err) && ctx.Err() == nil {
					continue // the executor was cancelled, not us: retry
				}
				return c.res, true, c.err
			case <-ctx.Done():
				return Result{}, false, ctx.Err()
			}
		}
		c := &flightCall{done: make(chan struct{})}
		f.calls[key] = c
		f.mu.Unlock()

		c.res, c.err = fn()
		// Remove before signalling: a caller that arrives after the
		// removal starts a fresh call, and the engine's in-flight cache
		// re-check keeps that from re-simulating a finished job.
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
		return c.res, false, c.err
	}
}

// isCancellation reports whether err is (or wraps) a context ending.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Gate is a counting semaphore bounding how many jobs simulate at once
// across every Engine sharing it — the campaign service's one bounded
// executor. Cache and dedup hits bypass the gate; only real simulations
// hold a slot.
type Gate chan struct{}

// NewGate returns a gate with n slots (n <= 0 panics: a gate exists to
// bound concurrency, and a zero bound would deadlock every campaign).
func NewGate(n int) Gate {
	if n <= 0 {
		panic("campaign: NewGate needs a positive slot count")
	}
	return make(Gate, n)
}

// Acquire takes a slot, abandoning the wait when ctx ends.
func (g Gate) Acquire(ctx context.Context) error {
	select {
	case g <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot.
func (g Gate) Release() { <-g }

package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/power"
)

// cacheSchema versions the cached-result format; bump it when Result or
// the simulator's statistics change shape or meaning, which invalidates
// every prior entry at once.
const cacheSchema = 1

// JobKey returns the content hash that identifies a job's result: a
// SHA-256 over everything the outcome depends on — benchmark, technique,
// the fully-derived simulator configuration, budget, seed, the sampling
// regime (when sampled), and the power parameters the campaign's figures
// will be computed with. The sweep point is deliberately absent: it is
// already folded into the derived configuration, so a sweep cell and a
// base run with equal configurations share one cache entry. The sampling
// field is omitted entirely for exact jobs, so exact keys are unchanged
// from before sampled mode existed and pre-existing caches stay valid.
func JobKey(job *Job, params power.Params) (string, error) {
	cfg := job.Config
	cfg.Probe = nil // runtime attachment, not identity
	blob, err := json.Marshal(struct {
		Schema   int
		Bench    string
		Tech     Technique
		Config   any
		Budget   int64
		Seed     int64
		Params   power.Params
		Sampling *Sampling `json:",omitempty"`
	}{cacheSchema, job.Bench, job.Tech, cfg, job.Budget, job.Seed, params, job.Sampling})
	if err != nil {
		return "", fmt.Errorf("campaign: hashing job %s: %w", job.ID(), err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// Cache persists one Result per JobKey under a directory, sharded by
// the key's first byte to keep directories small. It is the store the
// engine reads and writes, and the handle drivers that manage results
// by JobKey themselves use (the remote worker's scratch cache). A
// missing or unreadable entry is a miss, never an error: the cache is
// an accelerator, not a source of truth. A nil *Cache (from an empty
// dir) is safe to use: Get always misses and Put discards.
type Cache struct {
	dc cacheDir
}

// cacheDir is a cache's root directory.
type cacheDir string

func (d cacheDir) path(key string) string {
	return filepath.Join(string(d), key[:2], key+".json")
}

// OpenCache opens (creating if needed) a result cache at dir. An empty
// dir returns a nil Cache.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: cache dir: %w", err)
	}
	return &Cache{dc: cacheDir(dir)}, nil
}

// Get loads the cached result for a JobKey; ok is false on a miss or a
// corrupt entry. Hits come back with Cached set, and refresh the
// entry's mtime (best-effort) so the GC's mtime order approximates
// least-recently-used rather than least-recently-written.
func (c *Cache) Get(key string) (Result, bool) {
	if c == nil || key == "" {
		return Result{}, false
	}
	p := c.dc.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		return Result{}, false
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return Result{}, false
	}
	now := time.Now()
	_ = os.Chtimes(p, now, now)
	res.Cached = true
	return res, true
}

// Put stores a result under a JobKey atomically (write-to-temp, rename)
// so concurrent campaigns over the same cache directory never observe
// torn entries. Errors are the caller's to ignore: a failed write only
// costs a future re-simulation.
func (c *Cache) Put(key string, res Result) error {
	if c == nil || key == "" {
		return nil
	}
	p := c.dc.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	return os.Rename(tmp.Name(), p)
}

// cacheEntry is one on-disk result during a GC scan.
type cacheEntry struct {
	path  string
	size  int64
	mtime time.Time
}

// GC bounds the cache directory to maxBytes by evicting entries least
// recently used first (every hit refreshes an entry's mtime, so mtime
// order is recency order). Eviction is an accelerator trade, never a
// correctness event: an evicted result simply re-simulates on its next
// request. Concurrent readers of a deleted entry observe a miss,
// concurrent writers win the race harmlessly (their fresh mtime puts
// them at the back of the LRU). Returns how many entries were evicted
// and how many bytes they held. A nil cache or non-positive bound is a
// no-op.
func (c *Cache) GC(maxBytes int64) (evicted int, reclaimed int64, err error) {
	if c == nil || maxBytes <= 0 {
		return 0, 0, nil
	}
	var entries []cacheEntry
	var total int64
	err = filepath.WalkDir(string(c.dc), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".json") || strings.HasPrefix(d.Name(), ".") {
			return nil // temp files and foreign droppings are not ours to evict
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		entries = append(entries, cacheEntry{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("campaign: cache gc: %w", err)
	}
	if total <= maxBytes {
		return 0, 0, nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		if total-reclaimed <= maxBytes {
			break
		}
		if os.Remove(e.path) != nil {
			continue // already gone (racing GC or manual cleanup)
		}
		evicted++
		reclaimed += e.size
	}
	return evicted, reclaimed, nil
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
)

// stderr receives diagnostics; tests may silence it.
var stderr io.Writer = os.Stderr

// defaultSeed is the seed a run uses when none is given, and
// heldOutSeed a second seed pinned for checking claims on inputs no
// change was tuned on. Both have pinned references.
const (
	defaultSeed = 1
	heldOutSeed = 1001
)

// refsDir holds the pinned references, relative to the repository root.
const refsDir = "benchmark/refs"

// regenCommand regenerates every pinned reference.
const regenCommand = "bash benchmark/run.sh --regen-refs"

// machine names where a reference was recorded.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// pin is the pinned reference of one workload at one seed and size.
type pin struct {
	Seed int64 `json:"seed"`
	// Size is the workload's size parameter (an instruction budget), so
	// reduced-size runs never match a full-size pin.
	Size     int64   `json:"size"`
	Recorded string  `json:"recorded"`
	Machine  machine `json:"machine"`
	// Digests are SHA-256 digests of named outputs: campaign export
	// CSVs, and the paper-exact figure CSVs.
	Digests map[string]string `json:"digests"`
	// ExactIPC is the exact-simulation IPC of every sampled cell, the
	// base of ipc_err_pct (sampled-sweep and service-fleet).
	ExactIPC map[string]float64 `json:"exact_ipc,omitempty"`
}

// pinFile is one workload's file of pins.
type pinFile struct {
	Regenerate string `json:"regenerate"`
	Pins       []pin  `json:"pins"`
}

func pinPath(name string) string { return filepath.Join(refsDir, name+".json") }

// loadPin returns the pin for a workload at a seed and size, or nil.
func loadPin(name string, seed, size int64) (*pin, error) {
	blob, err := os.ReadFile(pinPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f pinFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", pinPath(name), err)
	}
	for i := range f.Pins {
		if f.Pins[i].Seed == seed && f.Pins[i].Size == size {
			return &f.Pins[i], nil
		}
	}
	return nil, nil
}

// reference checks outputs. A named output is compared with its pinned
// digest when the seed has a pin, and row by row with its expected text:
// the reference run's output where the workload makes one, otherwise
// the first repetition's output, so later repetitions must reproduce it.
type reference struct {
	pin *pin
	// size is the workload's size parameter, recorded in its pins.
	size int64

	mu     sync.Mutex
	expect map[string]string
}

func loadReference(name string, seed, size int64) (*reference, error) {
	p, err := loadPin(name, seed, size)
	if err != nil {
		return nil, err
	}
	return &reference{pin: p, size: size, expect: map[string]string{}}, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// expectText sets the known-good text of a named output.
func (r *reference) expectText(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expect[name] = text
}

// check compares a campaign's CSV export and any further outputs
// derived from it, and returns how many of the campaign's cells are
// wrong: the rows that differ from the expected text, or every row when
// a digest or a derived output differs.
func (r *reference) check(name, csv string, derived map[string]string) int {
	rows := dataRows(csv)
	r.mu.Lock()
	defer r.mu.Unlock()
	all, wrong := len(rows), 0
	if want, ok := r.expect[name]; ok {
		wantRows := dataRows(want)
		all = max(all, len(wantRows))
		wrong = rowDiff(wantRows, rows)
	} else {
		r.expect[name] = csv
	}
	if all == 0 {
		return 1 // an export without cells is wrong whatever it should hold
	}
	for k, text := range derived {
		key := name + "/" + k
		if want, ok := r.expect[key]; !ok {
			r.expect[key] = text
		} else if want != text {
			wrong = all
		}
	}
	if r.pin != nil {
		if want, ok := r.pin.Digests[name]; !ok || want != digest(csv) {
			wrong = all
		}
		for k, text := range derived {
			if want, ok := r.pin.Digests[name+"/"+k]; !ok || want != digest(text) {
				wrong = all
			}
		}
	}
	if wrong > 0 {
		fmt.Fprintf(stderr, "%s: %d of %d cells differ from the reference\n", name, wrong, all)
	}
	return wrong
}

// digests returns the SHA-256 digest of every expected output.
func (r *reference) digests() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.expect))
	for k, text := range r.expect {
		out[k] = digest(text)
	}
	return out
}

// exactIPC returns the exact-simulation IPC of every cell of the specs,
// keyed by cellKey: pinned when the seed has a pin, simulated otherwise.
func exactIPC(ctx context.Context, p *pin, specs ...campaign.Spec) (map[string]float64, error) {
	if p != nil && len(p.ExactIPC) > 0 {
		return p.ExactIPC, nil
	}
	out := map[string]float64{}
	for _, spec := range specs {
		spec.Sampling = nil
		rs, err := (&campaign.Engine{Workers: runtime.NumCPU()}).Run(ctx, spec)
		if err != nil {
			return nil, err
		}
		for i := range rs.Results {
			out[cellKey(&rs.Results[i])] = rs.Results[i].Stats.IPC()
		}
	}
	return out, nil
}

// cellKey names a result's cell across campaigns.
func cellKey(r *campaign.Result) string {
	return r.Bench + "/" + string(r.Tech) + "/" + r.Point.String()
}

// dataRows splits a CSV export into its data rows (header dropped).
func dataRows(csv string) []string {
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) <= 1 {
		return nil
	}
	return lines[1:]
}

// rowDiff counts rows of got that differ from want, plus any missing or
// extra rows.
func rowDiff(want, got []string) int {
	n := 0
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			n++
		}
	}
	if len(want) > len(got) {
		n += len(want) - len(got)
	}
	return n
}

// thisMachine describes the host, for the record.
func thisMachine() machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// makePin computes a workload's pin afresh: it drops the loaded pin,
// runs one repetition, which must pass the workload's own checks, and
// digests every output the reference then expects. A workload with
// sampled cells also records their exact IPC.
func makePin(ctx context.Context, w workload) (*pin, error) {
	ref := w.reference()
	ref.pin = nil // recompute, never copy the old pin
	out, err := w.rep(ctx, false)
	if err != nil {
		return nil, err
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("%d of %d cells failed their checks", out.failed, out.attempted)
	}
	p := &pin{Size: ref.size, Digests: ref.digests()}
	if s, ok := w.(sampler); ok {
		if p.ExactIPC, err = s.exactIPC(ctx); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// regenRefs recomputes the pins of every workload at the default and
// held-out seeds and rewrites benchmark/refs.
func regenRefs(ctx context.Context) error {
	if err := checkCheckout(); err != nil {
		return err
	}
	mach := thisMachine()
	for _, name := range workloadNames() {
		f := pinFile{Regenerate: regenCommand}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			w, err := newWorkload(ctx, name, seed)
			if err != nil {
				return err
			}
			p, err := makePin(ctx, w)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			p.Seed = seed
			p.Recorded = time.Now().UTC().Format(time.RFC3339)
			p.Machine = mach
			f.Pins = append(f.Pins, *p)
			fmt.Fprintf(stderr, "pinned %s seed %d\n", name, seed)
		}
		blob, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(refsDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(pinPath(name), append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

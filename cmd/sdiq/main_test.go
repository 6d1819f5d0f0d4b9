// First end-to-end tests for the CLI: build the real sdiq binary and
// pin its CSV outputs byte-for-byte against committed goldens. The
// goldens are the public face of the reproduction — if a refactor
// shifts a single digit of a figure export, these fail.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/sdiq -run TestGolden -update
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current binary")

// sdiqBin is the binary under test, built once by TestMain.
var sdiqBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "sdiq-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	sdiqBin = filepath.Join(dir, "sdiq")
	out, err := exec.Command("go", "build", "-o", sdiqBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building sdiq: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// runSdiq executes the binary and returns stdout, failing the test on a
// non-zero exit.
func runSdiq(t *testing.T, args ...string) []byte {
	t.Helper()
	stdout, stderr, err := execSdiq(args...)
	if err != nil {
		t.Fatalf("sdiq %v: %v\nstderr:\n%s", args, err, stderr)
	}
	return stdout
}

// execSdiq executes the binary and returns its stdout, stderr and exit
// error.
func execSdiq(args ...string) (stdout, stderr []byte, err error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command(sdiqBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}

// checkGolden compares got against testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden.\n--- got ---\n%s--- want ---\n%s"+
			"(intentional change? regenerate with: go test ./cmd/sdiq -run TestGolden -update)",
			name, got, want)
	}
}

// TestGoldenFig8CSV pins the headline power-savings figure (figure 8)
// at a small budget: full suite, all techniques, CSV format.
func TestGoldenFig8CSV(t *testing.T) {
	got := runSdiq(t, "-experiment", "fig8", "-format", "csv", "-budget", "20000", "-seed", "42")
	checkGolden(t, "fig8_budget20k.csv", got)
}

// TestGoldenSweepExportCSV pins a two-point IQ-size sweep through the
// campaign CSV exporter (-export), the byte format the campaign
// service must reproduce exactly.
func TestGoldenSweepExportCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.csv")
	runSdiq(t, "-experiment", "sweep", "-sweep", "iq.entries=16,80",
		"-budget", "8000", "-seed", "42", "-format", "csv", "-export", out)
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_iq16_80_budget8k.csv", got)
}

// TestGoldenDeterminism guards the premise the goldens stand on: two
// fresh processes at different worker counts must emit identical bytes.
func TestGoldenDeterminism(t *testing.T) {
	a := runSdiq(t, "-experiment", "fig8", "-format", "csv", "-budget", "20000", "-parallel", "1")
	b := runSdiq(t, "-experiment", "fig8", "-format", "csv", "-budget", "20000", "-parallel", "8")
	if !bytes.Equal(a, b) {
		t.Errorf("fig8 CSV differs across worker counts:\n%s\nvs\n%s", a, b)
	}
}

// TestLoadRendersExport: a campaign exported as JSON and re-rendered
// with -load must print the same figure as the run that simulated it,
// with no simulation on the -load side.
func TestLoadRendersExport(t *testing.T) {
	saved := filepath.Join(t.TempDir(), "suite.json")
	got := runSdiq(t, "-experiment", "fig8", "-format", "csv", "-budget", "20000", "-seed", "42",
		"-export", saved)
	checkGolden(t, "fig8_budget20k.csv", got)
	loaded := runSdiq(t, "-load", saved, "-experiment", "fig8", "-format", "csv")
	checkGolden(t, "fig8_budget20k.csv", loaded)
}

// TestLoadRejectsPartialGrid: an export that ran only some of the
// paper's techniques must not render figures (they would show numbers
// for cells that never ran); sdiq exits 1 naming the missing cell.
func TestLoadRejectsPartialGrid(t *testing.T) {
	spec := campaign.DefaultSpec(5000)
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
	rs := &campaign.ResultSet{Spec: spec, Results: []campaign.Result{
		{Bench: "gzip", Tech: campaign.TechBaseline},
		{Bench: "gzip", Tech: campaign.TechNOOP},
	}}
	saved := filepath.Join(t.TempDir(), "partial.json")
	f, err := os.Create(saved)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := execSdiq("-load", saved, "-experiment", "fig6", "-format", "csv")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("sdiq -load of a baseline+NOOP export: err = %v, want exit status 1\nstdout:\n%s", err, stdout)
	}
	if !strings.Contains(string(stderr), "no result for gzip under Extension") {
		t.Errorf("stderr does not name the missing cell:\n%s", stderr)
	}
}

package exp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/iq"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fixtureSuite builds a SuiteResults over a hand-made campaign result
// set with arithmetic chosen so every derived metric has an exact
// expected value — no simulation. The table-1 base configuration gives
// 10 IQ banks and 14 integer register-file banks.
func fixtureSuite() *SuiteResults {
	mk := func(bench string, tech campaign.Technique, committed, cycles, occSum, occCycles int64) campaign.Result {
		return campaign.Result{Bench: bench, Tech: tech, Stats: sim.Stats{
			CommittedReal: committed,
			Cycles:        cycles,
			IQ:            iq.Stats{OccupancySum: occSum, Cycles: occCycles},
		}}
	}
	spec := campaign.DefaultSpec(1000)
	spec.Benchmarks = []string{"alpha", "beta"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
	rs := &campaign.ResultSet{Spec: spec, Results: []campaign.Result{
		// alpha: baseline IPC 2.0 (1000/500), NOOP IPC 1.5 (750/500) -> 25% loss.
		//        occupancy 40 -> 30 -> 25% reduction.
		mk("alpha", campaign.TechBaseline, 1000, 500, 20000, 500),
		mk("alpha", campaign.TechNOOP, 750, 500, 15000, 500),
		// beta: baseline IPC 1.0, NOOP IPC 0.9 -> 10% loss.
		//       occupancy 60 -> 15 -> 75% reduction.
		mk("beta", campaign.TechBaseline, 500, 500, 30000, 500),
		mk("beta", campaign.TechNOOP, 450, 500, 7500, 500),
	}}
	return &SuiteResults{Benchmarks: rs.Benchmarks(), Campaign: rs}
}

// cell returns one fixture result for in-place edits.
func cell(s *SuiteResults, bench string, tech campaign.Technique) *campaign.Result {
	for i := range s.Campaign.Results {
		if r := &s.Campaign.Results[i]; r.Bench == bench && r.Tech == tech {
			return r
		}
	}
	panic("fixture has no " + bench + "/" + string(tech))
}

func almost(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestIPCLossPctFixture(t *testing.T) {
	s := fixtureSuite()
	if got := s.IPCLossPct("alpha", campaign.TechNOOP); !almost(got, 25) {
		t.Errorf("alpha loss = %f, want 25", got)
	}
	if got := s.IPCLossPct("beta", campaign.TechNOOP); !almost(got, 10) {
		t.Errorf("beta loss = %f, want 10", got)
	}
	if got := s.IPCLossPct("alpha", campaign.TechBaseline); !almost(got, 0) {
		t.Errorf("baseline self-loss = %f, want 0", got)
	}
	// Zero-IPC baseline must not divide by zero.
	cell(s, "alpha", campaign.TechBaseline).Stats = sim.Stats{}
	if got := s.IPCLossPct("alpha", campaign.TechNOOP); got != 0 {
		t.Errorf("zero baseline loss = %f, want 0", got)
	}
}

func TestOccupancyReductionPctFixture(t *testing.T) {
	s := fixtureSuite()
	if got := s.OccupancyReductionPct("alpha", campaign.TechNOOP); !almost(got, 25) {
		t.Errorf("alpha reduction = %f, want 25", got)
	}
	if got := s.OccupancyReductionPct("beta", campaign.TechNOOP); !almost(got, 75) {
		t.Errorf("beta reduction = %f, want 75", got)
	}
	cell(s, "beta", campaign.TechBaseline).Stats = sim.Stats{}
	if got := s.OccupancyReductionPct("beta", campaign.TechNOOP); got != 0 {
		t.Errorf("zero-occupancy baseline = %f, want 0", got)
	}
}

func TestMeanAndSpreadFixture(t *testing.T) {
	s := fixtureSuite()
	loss := func(b string) float64 { return s.IPCLossPct(b, campaign.TechNOOP) }
	if got := s.Mean(loss); !almost(got, 17.5) { // (25+10)/2
		t.Errorf("mean = %f, want 17.5", got)
	}
	// The per-benchmark spread the paper's bar charts show is the stats
	// package applied to the same per-benchmark values Mean averages.
	xs := []float64{loss("alpha"), loss("beta")}
	min, max := stats.MinMax(xs)
	if !almost(min, 10) || !almost(max, 25) {
		t.Errorf("spread min/max = %f/%f, want 10/25", min, max)
	}
	if sd := stats.StdDev(xs); !almost(sd, 7.5) { // population stddev of {25,10}
		t.Errorf("stddev = %f, want 7.5", sd)
	}
}

func TestBanksOffPctFixture(t *testing.T) {
	s := fixtureSuite()
	// 6 of 10 banks on -> 40% off.
	r := cell(s, "alpha", campaign.TechNOOP)
	r.Stats.IQ.BanksOnSum = 3000
	r.Stats.IQ.Cycles = 500
	if got := s.BanksOffPct("alpha", campaign.TechNOOP); !almost(got, 40) {
		t.Errorf("banks off = %f, want 40", got)
	}
}

// TestFromCampaignRejectsMissingTechnique: a campaign that ran only some
// of the paper's techniques must not render — the figures would print
// a 100% IPC loss and all banks off for a technique that never ran.
func TestFromCampaignRejectsMissingTechnique(t *testing.T) {
	s := fixtureSuite()
	if _, err := FromCampaign(s.Campaign); err == nil ||
		!strings.Contains(err.Error(), "alpha under Extension") {
		t.Fatalf("FromCampaign over a baseline+NOOP campaign: err = %v, want one naming alpha/Extension", err)
	}
	for _, b := range s.Benchmarks {
		for _, tech := range campaign.AllTechniques()[2:] {
			s.Campaign.Results = append(s.Campaign.Results, campaign.Result{Bench: b, Tech: tech})
		}
	}
	// A fresh set: the first one's lookup index predates the new cells.
	spec := s.Campaign.Spec
	spec.Techniques = nil
	got, err := FromCampaign(&campaign.ResultSet{Spec: spec, Results: s.Campaign.Results})
	if err != nil {
		t.Fatalf("complete grid rejected: %v", err)
	}
	if !almost(got.IPCLossPct("alpha", campaign.TechNOOP), 25) {
		t.Errorf("view over the complete grid changed a metric: %f", got.IPCLossPct("alpha", campaign.TechNOOP))
	}
}

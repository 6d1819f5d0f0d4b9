// Package exp renders the paper's evaluation (section 5): every table
// and figure, as views over a campaign.ResultSet. It runs nothing:
// callers execute the paper's grid (campaign.DefaultSpec) on a
// campaign.Engine or a campaign service and hand the result set to
// FromCampaign, so a freshly-simulated campaign and one loaded from a
// JSON export render alike.
package exp

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/power"
	"repro/internal/stats"
)

// SuiteResults is the figure renderers' view of a base-grid campaign.
// Every derived metric reads the campaign's base point; the reference
// for each "vs baseline" metric is the baseline run of the same
// benchmark.
type SuiteResults struct {
	Benchmarks []string
	// Campaign is the underlying result set (export, cache statistics).
	Campaign *campaign.ResultSet
}

// FromCampaign builds the view over a campaign result set. The campaign
// must be a base (no-axes) grid holding a result for every benchmark
// under each of the paper's five techniques: a figure never shows a
// number for a cell that did not run.
func FromCampaign(rs *campaign.ResultSet) (*SuiteResults, error) {
	if len(rs.Spec.Axes) > 0 {
		return nil, fmt.Errorf("exp: campaign %q sweeps axes; figures need a base grid", rs.Spec.Name)
	}
	if _, err := rs.ConfigAt(nil); err != nil || rs.Spec.Base.IntRF.BankSize < 1 {
		return nil, fmt.Errorf("exp: campaign %q has no base configuration (truncated export?)", rs.Spec.Name)
	}
	for _, b := range rs.Benchmarks() {
		for _, t := range campaign.AllTechniques() {
			if _, ok := rs.Get(b, t, nil); !ok {
				return nil, fmt.Errorf("exp: campaign %q has no result for %s under %s; figures need all five techniques",
					rs.Spec.Name, b, t)
			}
		}
	}
	return &SuiteResults{Benchmarks: rs.Benchmarks(), Campaign: rs}, nil
}

// --- derived metrics ---

// IPCLossPct returns the IPC loss of tech vs baseline for one benchmark.
func (s *SuiteResults) IPCLossPct(bench string, tech campaign.Technique) float64 {
	return s.Campaign.IPCLossPct(bench, tech, nil)
}

// OccupancyReductionPct returns the IQ occupancy reduction vs baseline.
func (s *SuiteResults) OccupancyReductionPct(bench string, tech campaign.Technique) float64 {
	return s.Campaign.OccupancyReductionPct(bench, tech, nil)
}

// BanksOffPct returns the fraction of IQ banks gated off under tech.
func (s *SuiteResults) BanksOffPct(bench string, tech campaign.Technique) float64 {
	r, _ := s.Campaign.Get(bench, tech, nil)
	iq := s.Campaign.Spec.Base.IQ
	return (1 - r.Stats.AvgIQBanksOn()/float64(iq.Entries/iq.BankSize)) * 100
}

// Savings returns the power savings of tech vs the baseline run. The
// error ResultSet.Savings can report (a missing cell or an invalid base
// configuration) is ruled out by FromCampaign.
func (s *SuiteResults) Savings(bench string, tech campaign.Technique) power.Savings {
	sv, _ := s.Campaign.Savings(bench, tech, nil)
	return sv
}

// NonEmptyPct returns the paper's nonEmpty accounting bar for a benchmark.
func (s *SuiteResults) NonEmptyPct(bench string) float64 {
	base, _ := s.Campaign.Get(bench, campaign.TechBaseline, nil)
	return s.Campaign.Spec.Params.NonEmptySavings(&base.Stats)
}

// Mean returns the arithmetic mean of f over all benchmarks (the paper's
// SPECINT bar).
func (s *SuiteResults) Mean(f func(bench string) float64) float64 {
	xs := make([]float64, 0, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		xs = append(xs, f(b))
	}
	return stats.Mean(xs)
}

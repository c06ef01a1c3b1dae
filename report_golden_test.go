package afterimage

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestReportMatchesGolden regenerates the full reproduction report at the
// committed fixture's settings (Seed 1, 60 rounds, 60k mitigation
// instructions) and compares every headline quantity against
// testdata/report_golden.json. Exact-valued fields (reverse-engineering
// structure, cycle counts) must match bit-for-bit; sampled rates and
// bandwidths get small tolerances so a legitimate model refinement shows up
// as a reviewed fixture update, not a flaky failure.
func TestReportMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full report regeneration is slow")
	}
	raw, err := os.ReadFile("testdata/report_golden.json")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want Report
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	got, err := FullReport(ReportOptions{Seed: 1, Rounds: 60, MitigationInstructions: 60_000})
	if err != nil {
		t.Fatalf("FullReport: %v", err)
	}

	// Structural reverse-engineering results are exact.
	if got.ReverseEngineering != want.ReverseEngineering {
		t.Errorf("reverse engineering drifted:\n got %+v\nwant %+v",
			got.ReverseEngineering, want.ReverseEngineering)
	}
	if got.Schema != want.Schema || got.Model != want.Model {
		t.Errorf("schema/model drifted: got (%s, %s)", got.Schema, got.Model)
	}

	// Success rates: absolute tolerance.
	near := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %v, golden %v (tol %v)", name, got, want, tol)
		}
	}
	rel := func(name string, got, want, frac float64) {
		t.Helper()
		near(name, got, want, math.Abs(want)*frac)
	}
	near("attacks.v1_thread", got.Attacks.V1ThreadSuccess, want.Attacks.V1ThreadSuccess, 0.05)
	near("attacks.v1_process", got.Attacks.V1ProcessSuccess, want.Attacks.V1ProcessSuccess, 0.05)
	near("attacks.v2_kernel", got.Attacks.V2KernelSuccess, want.Attacks.V2KernelSuccess, 0.05)
	near("attacks.sgx", got.Attacks.SGXSuccess, want.Attacks.SGXSuccess, 0.05)
	if got.Attacks.IPSearchFound != want.Attacks.IPSearchFound {
		t.Errorf("ip_search_found = %v", got.Attacks.IPSearchFound)
	}

	rel("covert.single_entry_bps", got.Covert.SingleEntryBps, want.Covert.SingleEntryBps, 0.10)
	near("covert.single_entry_error", got.Covert.SingleEntryError, want.Covert.SingleEntryError, 0.05)
	rel("covert.max_entries_bps", got.Covert.MaxEntriesBps, want.Covert.MaxEntriesBps, 0.10)
	near("covert.max_entries_error", got.Covert.MaxEntriesError, want.Covert.MaxEntriesError, 0.10)

	near("rsa.bit_success", got.RSA.BitSuccess, want.RSA.BitSuccess, 0.05)
	near("rsa.psc_observation", got.RSA.PSCObservation, want.RSA.PSCObservation, 0.05)
	rel("rsa.minutes_1024", got.RSA.Minutes1024Budget, want.RSA.Minutes1024Budget, 0.15)

	// Power t-values only need to stay on their side of the ±4.5 leakage
	// threshold.
	if got.Power.AlignedFinalT < 4.5 {
		t.Errorf("aligned t-value %v fell below the leakage threshold", got.Power.AlignedFinalT)
	}
	if math.Abs(got.Power.RandomFinalT) > 4.5 {
		t.Errorf("random-timing t-value %v crossed the leakage threshold", got.Power.RandomFinalT)
	}

	near("mitigation.top8", got.Mitigation.Top8Slowdown, want.Mitigation.Top8Slowdown, 0.01)
	near("mitigation.overall", got.Mitigation.OverallSlowdown, want.Mitigation.OverallSlowdown, 0.01)
	near("mitigation.bound", got.Mitigation.AnalyticBound, want.Mitigation.AnalyticBound, 0.01)

	if got.Comparison.BPUCycles != want.Comparison.BPUCycles ||
		got.Comparison.PrefetcherCycles != want.Comparison.PrefetcherCycles {
		t.Errorf("comparison cycles drifted: got (%d, %d), golden (%d, %d)",
			got.Comparison.BPUCycles, got.Comparison.PrefetcherCycles,
			want.Comparison.BPUCycles, want.Comparison.PrefetcherCycles)
	}
}

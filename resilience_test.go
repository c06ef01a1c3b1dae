package afterimage

import (
	"errors"
	"reflect"
	"testing"

	"afterimage/internal/faults"
)

// TestSweepZeroIntensityMatchesDirectRuns: the zero-intensity sweep point is
// bit-for-bit the clean Table 3 run — same seed offset, same success rate
// and cycle count — for every leak attack.
func TestSweepZeroIntensityMatchesDirectRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep comparison is slow")
	}
	const seed, bits = 1, 32
	base := NewLab(Options{Seed: seed})

	cases := []struct {
		attack SweepAttack
		direct func() (rate float64, cycles uint64)
	}{
		{SweepV1Thread, func() (float64, uint64) {
			r := NewLab(Options{Seed: seed}).RunVariant1(V1Options{Bits: bits})
			return r.SuccessRate(), r.Cycles
		}},
		{SweepV1Process, func() (float64, uint64) {
			r := NewLab(Options{Seed: seed + 1}).RunVariant1(V1Options{Bits: bits, CrossProcess: true})
			return r.SuccessRate(), r.Cycles
		}},
		{SweepV2Kernel, func() (float64, uint64) {
			r := NewLab(Options{Seed: seed + 2}).RunVariant2(V2Options{Bits: bits})
			return r.SuccessRate(), r.Cycles
		}},
	}
	for _, tc := range cases {
		sweep := base.RunFaultSweep(SweepOptions{
			Attack: tc.attack, Intensities: []float64{0}, Bits: bits,
		})
		if len(sweep.Points) != 1 {
			t.Fatalf("%v: %d points", tc.attack, len(sweep.Points))
		}
		pt := sweep.Points[0]
		rate, cycles := tc.direct()
		if pt.SuccessRate != rate || pt.Cycles != cycles {
			t.Errorf("%v: zero-intensity point (%.3f, %d cycles) != direct run (%.3f, %d cycles)",
				tc.attack, pt.SuccessRate, pt.Cycles, rate, cycles)
		}
		if pt.FaultEvents != 0 || pt.Err != "" {
			t.Errorf("%v: zero-intensity point reports faults: %+v", tc.attack, pt)
		}
	}
}

// TestSweepWarmupPrefetcherCounts pins what the campaign warmup trace does
// to the IP-stride prefetcher, which SweepOptions.Warmup and DESIGN.md
// describe: its 16 IPs alias onto 4 history entries whose stride never
// settles, so 400k loads allocate 4 entries and issue no prefetch.
func TestSweepWarmupPrefetcherCounts(t *testing.T) {
	for _, seed := range []int64{1, 777} {
		l := NewLab(Options{Seed: seed})
		l.runSweepWarmup(400_000)
		c := l.MetricsSnapshot().Counters
		if got := c["prefetcher.ipstride.prefetches"]; got != 0 {
			t.Errorf("seed %d: ipstride.prefetches %d, want 0", seed, got)
		}
		if got := c["prefetcher.ipstride.allocs"]; got != 4 {
			t.Errorf("seed %d: ipstride.allocs %d, want 4", seed, got)
		}
	}
}

// TestSweepDeterministic: the whole curve is a pure function of seed and
// options, including the faulted points.
func TestSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	opts := SweepOptions{
		Attack: SweepV1Thread, Intensities: []float64{0, 1, 4}, Bits: 24,
		Faults: faults.Config{EventsPerMCycle: 100},
	}
	a := NewLab(Options{Seed: 9}).RunFaultSweep(opts)
	b := NewLab(Options{Seed: 9}).RunFaultSweep(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different sweeps:\n%+v\nvs\n%+v", a, b)
	}
	var fired uint64
	for _, p := range a.Points {
		fired += p.FaultEvents
	}
	if fired == 0 {
		t.Fatal("no perturbations applied at non-zero intensities")
	}
}

// TestRunV1UnderInjectedFaults: the attack survives an aggressive fault
// schedule — it returns per-bit confidence and a success rate instead of
// crashing, and the engine verifiably fired.
func TestRunV1UnderInjectedFaults(t *testing.T) {
	lab := NewLab(Options{Seed: 4})
	eng := lab.InjectFaults(faults.Config{Seed: 21, Intensity: 2, EventsPerMCycle: 200})
	res, err := lab.RunVariant1E(V1Options{Bits: 32})
	if err != nil {
		t.Fatalf("faulted run errored: %v", err)
	}
	if eng.Stats().Total == 0 {
		t.Fatal("engine never fired")
	}
	if len(res.Confidence) != 32 {
		t.Fatalf("%d confidence scores for 32 bits", len(res.Confidence))
	}
	if res.SuccessRate() < 0.5 {
		t.Fatalf("success rate %.2f collapsed below coin-flip under moderate faults", res.SuccessRate())
	}
}

// TestConfidenceHighOnCleanRun: a clean run's confidence stays near 1.
func TestConfidenceHighOnCleanRun(t *testing.T) {
	res := NewLab(Options{Seed: 2}).RunVariant1(V1Options{Bits: 24})
	if len(res.Confidence) != 24 {
		t.Fatalf("%d confidence scores for 24 bits", len(res.Confidence))
	}
	if mc := res.MeanConfidence(); mc < 0.8 {
		t.Fatalf("clean-run mean confidence %.2f, want ≥ 0.8", mc)
	}
}

// TestBudgetFaultSurfacesAsTypedError: Options.MaxCycles terminates an
// experiment with a FaultBudget error through the Run*E boundary, keeping
// the bits leaked so far.
func TestBudgetFaultSurfacesAsTypedError(t *testing.T) {
	lab := NewLab(Options{Seed: 3, MaxCycles: 3_000_000})
	res, err := lab.RunVariant1E(V1Options{Bits: 1024})
	if err == nil {
		t.Fatal("1024-bit run inside a 3M-cycle budget did not fault")
	}
	var f *SimFault
	if !errors.As(err, &f) || f.Kind != FaultBudget {
		t.Fatalf("err = %v, want FaultBudget SimFault", err)
	}
	if len(res.Inferred) == 0 {
		t.Fatal("no partial bits survived the budget fault")
	}
	if len(res.Inferred) >= 1024 {
		t.Fatal("budget fault did not actually truncate the run")
	}
}

// TestNewLabEValidation: invalid geometry comes back as an error, not a
// panic.
func TestNewLabEValidation(t *testing.T) {
	if l, err := NewLabE(Options{Seed: 1}); err != nil || l == nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestZeroIntensityInjectRemovesPerturber: InjectFaults with an inert config
// uninstalls perturbation.
func TestZeroIntensityInjectRemovesPerturber(t *testing.T) {
	lab := NewLab(Options{Seed: 6})
	lab.InjectFaults(faults.Config{Seed: 1, Intensity: 5, EventsPerMCycle: 500})
	eng := lab.InjectFaults(faults.Config{})
	if eng.Enabled() {
		t.Fatal("inert engine reports enabled")
	}
	res, err := lab.RunVariant1E(V1Options{Bits: 8})
	if err != nil || eng.Stats().Total != 0 {
		t.Fatalf("residual perturbation after reset: err=%v events=%d", err, eng.Stats().Total)
	}
	if len(res.Inferred) != 8 {
		t.Fatalf("run truncated: %d bits", len(res.Inferred))
	}
}

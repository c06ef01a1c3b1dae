package core

import (
	"testing"

	"afterimage/internal/mem"
)

// TestCalibratorThreshold: no threshold until both estimates exist and the
// miss estimate clears the hit estimate by more than two cycles; otherwise
// the midpoint.
func TestCalibratorThreshold(t *testing.T) {
	for _, tc := range []struct {
		name      string
		hit, miss float64
		want      uint64
	}{
		{"no estimates", 0, 0, 0},
		{"hit only", 30, 0, 0},
		{"miss only", 0, 220, 0},
		{"miss below hit", 220, 30, 0},
		{"miss at hit+2", 40, 42, 0},
		{"miss just above hit+2", 40, 42.5, 41},
		{"separated", 30, 220, 125},
	} {
		c := Calibrator{Hit: tc.hit, Miss: tc.miss, Alpha: 0.25}
		if got := c.Threshold(); got != tc.want {
			t.Errorf("%s: Threshold() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCalibratorEWMA: the first sample seeds an estimate, later samples move
// it by Alpha of the gap.
func TestCalibratorEWMA(t *testing.T) {
	for _, tc := range []struct {
		name     string
		alpha    float64
		observe  func(c *Calibrator, lat uint64)
		estimate func(c *Calibrator) float64
		lats     []uint64
		want     float64
	}{
		{"hit seeds", 0.25, (*Calibrator).ObserveHit, func(c *Calibrator) float64 { return c.Hit }, []uint64{40}, 40},
		{"hit steps by alpha", 0.25, (*Calibrator).ObserveHit, func(c *Calibrator) float64 { return c.Hit }, []uint64{40, 80}, 50},
		{"miss steps by alpha", 0.5, (*Calibrator).ObserveMiss, func(c *Calibrator) float64 { return c.Miss }, []uint64{200, 100}, 150},
		{"miss steps twice", 0.5, (*Calibrator).ObserveMiss, func(c *Calibrator) float64 { return c.Miss }, []uint64{200, 100, 100}, 125},
	} {
		c := &Calibrator{Alpha: tc.alpha}
		for _, lat := range tc.lats {
			tc.observe(c, lat)
		}
		if got := tc.estimate(c); got != tc.want {
			t.Errorf("%s: estimate %v, want %v", tc.name, got, tc.want)
		}
	}
	if c := NewCalibrator(); c.Alpha != 0.25 || c.Hit != 0 || c.Miss != 0 {
		t.Fatalf("NewCalibrator() = %+v, want empty estimates with Alpha 0.25", c)
	}
}

// TestCalibratorMeasure: on a quiet machine the measured populations
// straddle the configured hit threshold and the refreshed threshold falls
// strictly between them.
func TestCalibratorMeasure(t *testing.T) {
	m := quiet(1)
	env := m.Direct(m.NewProcess("attacker"))
	page := env.Mmap(mem.PageSize, mem.MapLocked)
	c := NewCalibrator()
	thr := c.Measure(env, page.Base+17*LineSize, 6)
	if !(c.Hit < float64(thr) && float64(thr) < c.Miss) {
		t.Fatalf("threshold %d not strictly between hit %.1f and miss %.1f", thr, c.Hit, c.Miss)
	}
	if static := float64(m.Cfg.Measure.HitThreshold); !(c.Hit < static && c.Miss > static) {
		t.Fatalf("hit %.1f and miss %.1f do not straddle the configured threshold %v", c.Hit, c.Miss, static)
	}
}

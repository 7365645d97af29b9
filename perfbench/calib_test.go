package main

import "testing"

// The calibration kernel does the same work on every run and every lane,
// and allocates nothing, so the program's heap cannot change its cost.
func TestCalibKernelFixed(t *testing.T) {
	c := newCalibrator()
	want := c.lanes[0].kernel()
	for l, k := range c.lanes {
		if got := k.kernel(); got != want {
			t.Fatalf("lane %d: checksum %d, want %d", l, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { c.lanes[0].kernel() }); allocs != 0 {
		t.Fatalf("kernel allocates %v times a run", allocs)
	}
}

// measure records one kernel time per lane, and slowdown turns the median
// into a factor against the reference.
func TestCalibMeasure(t *testing.T) {
	c := newCalibrator()
	c.measure()
	us := c.take()
	if len(us) != len(c.lanes) {
		t.Fatalf("measure recorded %d times, want %d", len(us), len(c.lanes))
	}
	for _, v := range us {
		if v <= 0 {
			t.Fatalf("kernel time %v µs", v)
		}
	}
	if len(c.take()) != 0 {
		t.Fatal("take did not start a new series")
	}
	if c.cpu() <= 0 {
		t.Fatal("kernel CPU not charged")
	}
	if got := slowdown(nil); got != 1 {
		t.Fatalf("slowdown of no samples = %v, want 1", got)
	}
	if got := slowdown([]float64{calibRefUS, 2 * calibRefUS, 3 * calibRefUS}); got != 2 {
		t.Fatalf("slowdown = %v, want 2", got)
	}
}

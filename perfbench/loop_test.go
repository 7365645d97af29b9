package main

import "testing"

// A burst of slow requests inside one block must not move
// latency_p99_ms; a slow tail present in every block must.
func TestTailLatency(t *testing.T) {
	base := func() []float64 {
		xs := make([]float64, 6000)
		for i := range xs {
			xs[i] = float64(1 + i%100) // every block holds 1..100 ms
		}
		return xs
	}
	steady := tailLatency(base())
	if steady < 99 || steady > 100 {
		t.Fatalf("steady p99 = %v, want about 99", steady)
	}
	burst := base()
	for i := 0; i < 200; i++ {
		burst[i] = 1000 // 20% of the first block
	}
	if got := tailLatency(burst); got != steady {
		t.Fatalf("a one-block burst moved the p99 from %v to %v", steady, got)
	}
	slow := base()
	for i := 0; i < len(slow); i += 50 {
		slow[i] = 1000 // 2% of every block
	}
	if got := tailLatency(slow); got != 1000 {
		t.Fatalf("a tail in every block gave %v, want 1000", got)
	}
}

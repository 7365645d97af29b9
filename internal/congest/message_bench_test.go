package congest

import (
	"testing"

	"distmwis/internal/graph/gen"
	"distmwis/internal/wire"
)

// fateHook applies one fixed Verdict to every message, exercising one
// branch of the delivery fault path per benchmark.
type fateHook struct {
	dup     bool
	rewrite bool
}

func (h *fateHook) Begin(int)                {}
func (h *fateHook) State(int, int) NodeState { return NodeUp }

func (h *fateHook) Deliver(_, _, _ int, m wire.Reader) Verdict {
	v := Verdict{Dup: h.dup}
	if h.rewrite {
		// An identical copy passes the checksum, so the rewrite is
		// delivered from the fault slab.
		var w wire.Writer
		w.Append(m)
		v.Rewrite = &w
	}
	return v
}

// BenchmarkMessageDelivery measures a flood protocol's delivery on each
// path through the fault seam: no hook, a hook that passes everything
// (descriptors only), a duplicate of every message copied into the fault
// slab, and a rewrite of every message copied in. Run with -benchmem: the
// first two allocate nothing per message.
func BenchmarkMessageDelivery(b *testing.B) {
	g := gen.GNP(256, 0.05, 3)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"hook-pass", []Option{WithFaults(&fateHook{})}},
		{"hook-dup", []Option{WithFaults(&fateHook{dup: true})}},
		{"hook-rewrite", []Option{WithFaults(&fateHook{rewrite: true})}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := append([]Option{WithEngine(EngineSequential)}, tc.opts...)
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, func() Process { return &floodMax{rounds: 8} }, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

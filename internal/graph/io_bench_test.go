package graph_test

import (
	"testing"

	"distmwis/internal/graph"
	"distmwis/internal/graph/gen"
)

// benchGraphs are the two inline-request shapes of the serving benchmark
// at 2500 nodes: G(n,p) of average degree 4 and a power-law graph
// (γ=2.5, Δ≤40), both with poly2 weights in [1, n²].
func benchGraphs() []struct {
	name string
	g    *graph.Graph
} {
	const n = 2500
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.Weighted(gen.GNP(n, 4.0/n, 1), gen.PolyWeights(2), 2)},
		{"powerlaw", gen.Weighted(gen.PowerLaw(n, 2.5, 40, 1), gen.PolyWeights(2), 2)},
	}
}

// BenchmarkDecodeJSON times document → Graph: the single-pass decoder
// against the reflection decoder it replaced (the test oracle).
func BenchmarkDecodeJSON(b *testing.B) {
	for _, bg := range benchGraphs() {
		doc := bg.g.AppendJSON(nil)
		for _, dec := range []struct {
			name string
			fn   func([]byte, int) (*graph.Graph, error)
		}{{"single-pass", graph.DecodeJSON}, {"reflection", graph.OracleDecode}} {
			b.Run(bg.name+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(doc)))
				for i := 0; i < b.N; i++ {
					if _, err := dec.fn(doc, 1<<20); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAppendJSON times Graph → document: AppendJSON into a reused
// buffer against the reflection encoder it replaced.
func BenchmarkAppendJSON(b *testing.B) {
	for _, bg := range benchGraphs() {
		b.Run(bg.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = bg.g.AppendJSON(buf[:0])
			}
			b.SetBytes(int64(len(buf)))
		})
		b.Run(bg.name+"/reflection", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.OracleEncode(bg.g)
			}
		})
	}
}

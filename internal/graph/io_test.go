package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// jsonDoc and oracleDecode/oracleEncode are the reflection codec that
// DecodeJSON and AppendJSON replaced, kept verbatim as their test oracle:
// encoding/json into a struct, then the Builder.
type jsonDoc struct {
	N     int        `json:"n"`
	IDs   []uint64   `json:"ids,omitempty"`
	W     []int64    `json:"weights,omitempty"`
	Edges [][2]int32 `json:"edges"`
}

// oracleDecode is the reflection decoder. maxNodes bounds n before the
// Builder allocates (the original had no bound; fuzzing needs one).
func oracleDecode(data []byte, maxNodes int) (*Graph, error) {
	var doc jsonDoc
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
		return nil, err
	}
	if doc.N < 0 {
		return nil, fmt.Errorf("negative node count %d", doc.N)
	}
	if doc.N > maxNodes {
		return nil, ErrTooManyNodes
	}
	if len(doc.IDs) != 0 && len(doc.IDs) != doc.N {
		return nil, fmt.Errorf("%d ids for %d nodes", len(doc.IDs), doc.N)
	}
	if len(doc.W) != 0 && len(doc.W) != doc.N {
		return nil, fmt.Errorf("%d weights for %d nodes", len(doc.W), doc.N)
	}
	b := NewBuilder(doc.N)
	for v, id := range doc.IDs {
		b.SetID(v, id)
	}
	if len(doc.W) != 0 {
		b.SetWeights(doc.W)
	}
	for _, e := range doc.Edges {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.Build()
}

// oracleEncode is the reflection encoder.
func oracleEncode(g *Graph) []byte {
	doc := jsonDoc{
		N:     g.N(),
		IDs:   make([]uint64, g.N()),
		W:     g.Weights(),
		Edges: make([][2]int32, 0, g.M()),
	}
	for v := 0; v < g.N(); v++ {
		doc.IDs[v] = g.ID(v)
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				doc.Edges = append(doc.Edges, [2]int32{int32(v), u})
			}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// breaksStrictRule reports whether data, a document the oracle accepts,
// breaks one of the two rules by which DecodeJSON is stricter (see
// TestDecodeJSONStricterRules): a key that appears twice, as encoding/json
// matches keys to fields, or data after the document.
func breaksStrictRule(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err == nil && tok == json.Delim('{') {
		seen := map[string]bool{}
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return false
			}
			key, _ := tok.(string)
			for _, k := range docKeys {
				if strings.EqualFold(key, k) {
					if seen[k] {
						return true
					}
					seen[k] = true
				}
			}
			var v json.RawMessage
			if err := dec.Decode(&v); err != nil {
				return false
			}
		}
		if _, err := dec.Token(); err != nil {
			return false
		}
	}
	_, err := dec.Token()
	return err != io.EOF
}

// TestDecodeJSONStricterRules pins every kind of document the reflection
// decoder accepted and DecodeJSON rejects.
func TestDecodeJSONStricterRules(t *testing.T) {
	tests := []struct{ name, doc string }{
		{"duplicate-key", `{"n":2,"n":2,"edges":[]}`},
		{"duplicate-folded-key", `{"n":2,"edges":[],"EDGES":[[0,1]]}`},
		{"duplicate-escaped-key", `{"n":2,"ids":[1,2],"\u0069ds":null}`},
		{"trailing-data", `{"n":1,"edges":[]} {}`},
		{"trailing-garbage", `null x`},
		{"trailing-nul", "{\"n\":1}\x00"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := oracleDecode([]byte(tt.doc), 1<<10); err != nil {
				t.Fatalf("oracle rejects %s: %v", tt.doc, err)
			}
			if !breaksStrictRule([]byte(tt.doc)) {
				t.Errorf("breaksStrictRule misses %s", tt.doc)
			}
			if _, err := DecodeJSON([]byte(tt.doc), 0); err == nil {
				t.Errorf("DecodeJSON accepts %s", tt.doc)
			}
		})
	}
}

// TestDecodeJSONAccepts pins documents both decoders accept, with their
// canonical forms equal: key order, whitespace, null or empty arrays,
// "-0", and the integer range limits.
func TestDecodeJSONAccepts(t *testing.T) {
	docs := []string{
		`{}`,
		`{"n":0,"edges":[]}`,
		` {"edges":[[1,0]],"weights":[3,4],"n":2} ` + "\n",
		"{\"n\"\t:\r\n2 , \"ids\" : [ 7 , 9 ] , \"edges\" : [ [ 0 , 1 ] ] }",
		`{"n":3,"ids":null,"weights":null,"edges":null}`,
		`{"n":3,"ids":[],"weights":[],"edges":[[0,1],[1,0],[0,1]]}`,
		`{"n":2,"weights":[-0,9223372036854775807],"edges":[[-0,1]]}`,
		`{"n":2,"ids":[0,18446744073709551615]}`,
		// encoding/json's leniencies, which DecodeJSON shares.
		`null`,
		`{"N":2,"EDGES":[[0,1]],"Weights":[3,4]}`,
		`{"n":2,"idſ":[3,4]}`, // U+017F folds to 's'
		`{"\u006e":2,"\u0065dges":[[0,1]],"\/x\"\\\b\f\n\r\t\ud800\udc00":1}`,
		`{"n":2,"comment":{"a":[1,-0.5e-3,2E+7,true,false,null,"\u00e9` + "\xff" + `"],"b":{}},"edges":[[0,1]],"z":[]}`,
		`{"n":null,"edges":[]}`,
		`{"n":2,"ids":[null,5],"weights":[7,null],"edges":[[null,1]]}`,
		`{"n":2,"edges":[[1]]}`,
		`{"n":3,"edges":[[0,1,2],[1,2,"x",{"y":[null]},[],-1.5]]}`,
	}
	for _, doc := range docs {
		want, err := oracleDecode([]byte(doc), 1<<10)
		if err != nil {
			t.Fatalf("oracle rejects %s: %v", doc, err)
		}
		got, err := DecodeJSON([]byte(doc), 0)
		if err != nil {
			t.Fatalf("DecodeJSON rejects %s: %v", doc, err)
		}
		if !bytes.Equal(got.Canonical(), want.Canonical()) {
			t.Errorf("%s: canonical forms differ", doc)
		}
	}
}

// TestDecodeJSONRejectsLikeOracle: malformed documents both decoders
// reject, including every integer one past its slot's range.
func TestDecodeJSONRejectsLikeOracle(t *testing.T) {
	docs := []string{
		``, `{`, `[]`, `3`, `"n"`, `{"n":2,}`, `{"n":2 "edges":[]}`,
		`{"n":1.0}`, `{"n":1e2}`, `{"n":"2"}`, `{"n":true}`, `{"n":01}`, `{"n":-}`,
		`{"n":2,"ids":[-1,2]}`, `{"n":2,"ids":[-0,2]}`, `{"n":2,"ids":[1,18446744073709551616]}`,
		`{"n":2,"weights":[1,9223372036854775808]}`, `{"n":2,"weights":[1,-9223372036854775809]}`,
		`{"n":2,"weights":[-1,1]}`,
		`{"n":2,"edges":[[0,2147483648]]}`, `{"n":2,"edges":[[-2147483649,0]]}`,
		`{"n":2,"edges":[[0,1]`, `{"n":2,"edges":[[0,1],]}`, `{"n":2,"edges":[0,1]}`,
		`{"n":2,"edges":{}}`, `{"n":2,"ids":[1,2,3]}`, `{"ids":[1,2,3],"n":2}`,
		`{"n":2,"weights":[1]}`, `{"n":-1}`, `{"n":9223372036854775808}`,
		`{"n":2,"edges":[[]]}`, `{"n":2,"edges":[null]}`, `{"n":2,"edges":[[0,1,tru]]}`,
		`{"n":nul}`, `{"n":2,"ids":[1,nul]}`, `nul`, `{"n":2,"edges":[[0,1,01]]}`,
		`{"n":2,"x":[}`, `{"n":2,"x":{"a"}}`, `{"n":2,"x":{1:2}}`, `{"n":2,"x":"\q"}`,
		`{"n":2,"x":"\u12g4"}`, `{"n":2,"x":"\u12"}`, "{\"n\":2,\"x\":\"a\x01\"}", `{"n":2,"x":"abc`,
		`{"n":2,"x":01}`, `{"n":2,"x":1.}`, `{"n":2,"x":1.e5}`, `{"n":2,"x":1e}`, `{"n":2,"x":1e+}`,
		`{"n":2,"x":-}`, `{"n":2,"x":+1}`, `{"n":2,"x":.5}`, `{"n":2,"x":tru}`, `{"n":2,"x":nulll}`,
		`{"n":2,"x":}`, `{"n\x":2}`, `{"n":2,"x":[1,]}`,
	}
	for _, doc := range docs {
		if _, err := oracleDecode([]byte(doc), 1<<10); err == nil {
			t.Fatalf("oracle accepts %s", doc)
		}
		if _, err := DecodeJSON([]byte(doc), 0); err == nil {
			t.Errorf("DecodeJSON accepts %s", doc)
		}
	}
}

// TestDecodeJSONNestingDepth: like encoding/json, DecodeJSON accepts a
// value inside 10,000 arrays and objects (its own included) and rejects one
// more, in a skipped key and in an edge's surplus elements.
func TestDecodeJSONNestingDepth(t *testing.T) {
	nest := func(prefix string, k int, suffix string) string {
		return prefix + strings.Repeat("[", k) + strings.Repeat("]", k) + suffix
	}
	for _, tc := range []struct {
		doc    string
		accept bool
	}{
		{nest(`{"x":`, maxDepth-1, `,"n":0}`), true},
		{nest(`{"x":`, maxDepth, `,"n":0}`), false},
		{nest(`{"n":2,"edges":[[0,1,`, maxDepth-3, `]]}`), true},
		{nest(`{"n":2,"edges":[[0,1,`, maxDepth-2, `]]}`), false},
	} {
		_, oerr := oracleDecode([]byte(tc.doc), 1<<10)
		_, err := DecodeJSON([]byte(tc.doc), 0)
		if (oerr == nil) != tc.accept || (err == nil) != tc.accept {
			t.Errorf("%.30s…: oracle err %v, DecodeJSON err %v, want accept=%v", tc.doc, oerr, err, tc.accept)
		}
	}
}

// TestDecodeJSONNodeBound: n above the bound fails with ErrTooManyNodes,
// before the document's arrays are allocated; n at the bound is accepted.
func TestDecodeJSONNodeBound(t *testing.T) {
	if _, err := DecodeJSON([]byte(`{"n":1000,"edges":[]}`), 1000); err != nil {
		t.Fatalf("n at the bound: %v", err)
	}
	for _, doc := range []string{
		`{"n":1001,"edges":[]}`,
		`{"n":2000000,"edges":[]}`,
		`{"ids":[1,2],"n":2000000}`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeJSON([]byte(doc), 1000)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooManyNodes) {
			t.Errorf("%s: err = %v, want ErrTooManyNodes", doc, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
			t.Errorf("%s: rejecting allocated %d bytes", doc, d)
		}
	}
	// Without a bound, n is still limited to what int32 offsets index.
	if _, err := DecodeJSON([]byte(fmt.Sprintf(`{"n":%d}`, int64(math.MaxInt32))), 0); !errors.Is(err, ErrTooManyNodes) {
		t.Errorf("n = MaxInt32: err = %v, want ErrTooManyNodes", err)
	}
}

// TestAppendJSONMatchesEncoder: AppendJSON writes exactly the bytes of
// json.Encoder on the oracle document, trailing newline included, for the
// empty graph, a graph with negative derived weights and large ids.
func TestAppendJSONMatchesEncoder(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(2, 0)
	b.AddEdge(1, 3)
	b.AddEdge(0, 1)
	b.SetID(3, math.MaxUint64)
	g := b.MustBuild().WithWeights([]int64{math.MinInt64, 0, -5, math.MaxInt64})
	for _, g := range []*Graph{NewBuilder(0).MustBuild(), NewBuilder(3).MustBuild(), g} {
		if got, want := g.AppendJSON(nil), oracleEncode(g); !bytes.Equal(got, want) {
			t.Errorf("AppendJSON = %s, encoder = %s", got, want)
		}
	}
	if got := string(g.AppendJSON([]byte("x"))); !strings.HasPrefix(got, `x{"n":4,`) {
		t.Errorf("AppendJSON does not append: %q", got)
	}
}

// FuzzDecodeJSON is the differential check of DecodeJSON against the
// reflection oracle: on any bytes outside the listed stricter rules both
// accept or both reject, accepted documents build the same canonical
// graph, and AppendJSON writes the oracle encoder's bytes, which decode
// back to the same graph.
func FuzzDecodeJSON(f *testing.F) {
	const maxNodes = 1 << 12
	f.Add([]byte(`{"n":3,"edges":[[0,1],[1,2]]}`))
	f.Add([]byte(`{"n":0,"edges":[]}`))
	f.Add([]byte(`{"n":2,"ids":[5,6],"weights":[1,2],"edges":[[0,1]]}`))
	f.Add([]byte(` {"edges":[[1,0]] , "n":2,"weights":null} `))
	f.Add([]byte(`{"n":2,"edges":[[1]]}`))
	f.Add([]byte(`{"N":2,"ids":[null,1]}`))
	f.Add([]byte(`{"n":2,"c":{"a":[1.5e3,"\u00e9\n",true]},"\u0065dges":[[0,1,null]]}`))
	f.Add([]byte(`{"n":2,"n":1} x`))
	f.Add([]byte(`{"n":5000,"edges":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeJSON(data, maxNodes)
		want, oerr := oracleDecode(data, maxNodes)
		if err != nil {
			if oerr == nil && !breaksStrictRule(data) {
				t.Fatalf("DecodeJSON rejects %q (%v); the oracle accepts it", data, err)
			}
			return
		}
		if oerr != nil {
			t.Fatalf("DecodeJSON accepts %q; the oracle rejects it: %v", data, oerr)
		}
		if !bytes.Equal(got.Canonical(), want.Canonical()) {
			t.Fatalf("canonical forms differ for %q", data)
		}
		enc := got.AppendJSON(nil)
		if oenc := oracleEncode(want); !bytes.Equal(enc, oenc) {
			t.Fatalf("AppendJSON = %s, encoder = %s", enc, oenc)
		}
		back, err := DecodeJSON(enc, maxNodes)
		if err != nil || !bytes.Equal(back.Canonical(), got.Canonical()) {
			t.Fatalf("AppendJSON output does not decode back: %v", err)
		}
	})
}

func TestJSONRoundTrip(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.SetWeights([]int64{5, 0, 7, 2, 9})
	b.SetID(0, 100)
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("shape changed: n %d→%d m %d→%d", g.N(), g2.N(), g.M(), g2.M())
	}
	for v := 0; v < g.N(); v++ {
		if g2.Weight(v) != g.Weight(v) || g2.ID(v) != g.ID(v) || g2.Degree(v) != g.Degree(v) {
			t.Errorf("node %d metadata changed", v)
		}
		for _, u := range g.Neighbors(v) {
			if !g2.HasEdge(v, int(u)) {
				t.Errorf("edge {%d,%d} lost", v, u)
			}
		}
	}
}

func TestReadJSONRejections(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{name: "garbage", doc: "not json"},
		{name: "negative-n", doc: `{"n":-1,"edges":[]}`},
		{name: "ids-mismatch", doc: `{"n":2,"ids":[1],"edges":[]}`},
		{name: "weights-mismatch", doc: `{"n":2,"weights":[1,2,3],"edges":[]}`},
		{name: "self-loop", doc: `{"n":2,"edges":[[1,1]]}`},
		{name: "edge-out-of-range", doc: `{"n":2,"edges":[[0,5]]}`},
		{name: "duplicate-ids", doc: `{"n":2,"ids":[7,7],"edges":[]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(tt.doc), 1<<10); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestReadJSONDefaults(t *testing.T) {
	g, err := ReadJSON(strings.NewReader(`{"n":3,"edges":[[0,1]]}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsUnitWeight() || g.ID(2) != 3 {
		t.Error("defaults not applied")
	}
}

// TestQuickJSONRoundTrip: serialization is lossless for arbitrary valid
// graphs.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(edges [][2]uint8, weights []uint8) bool {
		const n = 20
		b := NewBuilder(n)
		for _, e := range edges {
			u, v := int(e[0])%n, int(e[1])%n
			if u != v {
				b.AddEdge(u, v)
			}
		}
		for v := 0; v < n && v < len(weights); v++ {
			b.SetWeight(v, int64(weights[v]))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return false
		}
		g2, err := ReadJSON(&buf, n)
		if err != nil {
			return false
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		for v := 0; v < n; v++ {
			if g2.Weight(v) != g.Weight(v) {
				return false
			}
		}
		return g2.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func FuzzReadJSON(f *testing.F) {
	const maxNodes = 1 << 16
	f.Add([]byte(`{"n":3,"edges":[[0,1],[1,2]]}`))
	f.Add([]byte(`{"n":0,"edges":[]}`))
	f.Add([]byte(`{"n":2,"ids":[5,6],"weights":[1,2],"edges":[[0,1]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadJSON(bytes.NewReader(data), maxNodes)
		if err != nil {
			return // malformed inputs must only error, never panic
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		// Accepted graphs must round-trip.
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJSON(&buf, maxNodes); err != nil {
			t.Fatalf("round-trip failed: %v", err)
		}
	})
}

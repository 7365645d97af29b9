package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// serveAlloc runs one request through h in-process and returns its status
// and the bytes the process allocated meanwhile.
func serveAlloc(h http.Handler, method, path string, body []byte) (int, uint64) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	return w.Code, after.TotalAlloc - before.TotalAlloc
}

// TestOversizedRequests413: a graph document over MaxGraphNodes and a body
// over MaxBodyBytes are refused with 413 on POST /v1/solve and PUT
// /v1/graph, without allocating anything near their size. A graph at the
// node bound is accepted.
func TestOversizedRequests413(t *testing.T) {
	s := New(Options{Workers: 1, MaxGraphNodes: 1000, MaxBodyBytes: 64 << 10})
	t.Cleanup(func() { _ = s.Drain() })
	h := s.Handler()

	// Two million nodes would take ~50 MB to build; 4 MiB of whitespace
	// would take 4 MiB to buffer. Either limit must stop well before.
	const budget = 1 << 20
	hugeN := []byte(`{"n":2000000,"edges":[]}`)
	padded := []byte(`{"n":1,"edges":[]` + strings.Repeat(" ", 4<<20) + `}`)
	cases := []struct {
		name, method, path string
		body               []byte
	}{
		{"solve-nodes", "POST", "/v1/solve", append(append([]byte(`{"alg":"goodnodes","graph":`), hugeN...), '}')},
		{"solve-body", "POST", "/v1/solve", append(append([]byte(`{"alg":"goodnodes","graph":`), padded...), '}')},
		{"put-nodes", "PUT", "/v1/graph", hugeN},
		{"put-body", "PUT", "/v1/graph", padded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, alloc := serveAlloc(h, tc.method, tc.path, tc.body)
			if code != http.StatusRequestEntityTooLarge {
				t.Errorf("status %d, want 413", code)
			}
			if alloc > budget {
				t.Errorf("refusing allocated %d bytes (budget %d)", alloc, budget)
			}
		})
	}
	if code, _ := serveAlloc(h, "PUT", "/v1/graph", []byte(`{"n":1000,"edges":[[0,1]]}`)); code != http.StatusOK {
		t.Errorf("PUT at the node bound: status %d, want 200", code)
	}
	if code, _ := serveAlloc(h, "POST", "/v1/solve", []byte(`{"alg":"goodnodes","graph":{"n":1000,"edges":[[0,1]]}}`)); code != http.StatusOK {
		t.Errorf("solve at the node bound: status %d, want 200", code)
	}
}

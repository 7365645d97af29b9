package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"distmwis/internal/server"
)

// TestClusterOversized413: through a front tier's POST /v1/cluster/solve,
// a graph over the front server's MaxGraphNodes (which the coordinator
// takes from it) and a body over its MaxBodyBytes are refused with 413
// before any backend is asked and without allocating anything near their
// size.
func TestClusterOversized413(t *testing.T) {
	c, err := New([]string{"http://127.0.0.1:1"}, testOpts()) // never reached
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	front := server.New(server.Options{Workers: 1, Cluster: c.Handler(), MaxGraphNodes: 1000, MaxBodyBytes: 64 << 10})
	defer func() { _ = front.Drain() }()
	h := front.Handler()
	for name, body := range map[string]string{
		"nodes": `{"alg":"goodnodes","graph":{"n":2000000,"edges":[]}}`,
		"body":  `{"alg":"goodnodes","graph":{"n":1,"edges":[]` + strings.Repeat(" ", 4<<20) + `}}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/solve", bytes.NewReader([]byte(body)))
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", name, w.Code, w.Body.String())
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s: refusing allocated %d bytes", name, d)
		}
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"distmwis/internal/server"
	"distmwis/internal/server/client"
)

// This file boots the program under test in-process — server.New behind
// loopback listeners — and holds the benchmark-side tracing hooks: a handler
// wrapper and a client transport that time requests carrying a span id.
// Nothing here changes the program; the hooks sit outside its public
// surface (Server.Handler and client.Options.HTTPClient).

// spanHeader carries the benchmark's span id (the request's sequence index)
// from the benchmark's client to the server, and from the cluster front tier
// to its backends.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) (int, bool) {
	id, ok := ctx.Value(spanKey{}).(int)
	return id, ok
}

// spanRec is what the hooks recorded for one traced request.
type spanRec struct {
	handler time.Duration   // handler time on the node the benchmark called
	parts   []time.Duration // cluster: backend handler time per part
	partRT  []time.Duration // cluster: coordinator→backend round trip per part
}

// spanLog keeps spans in memory for the traced run.
type spanLog struct {
	mu   sync.Mutex
	recs map[int]*spanRec
}

func newSpanLog() *spanLog { return &spanLog{recs: make(map[int]*spanRec)} }

func (l *spanLog) rec(id int) *spanRec {
	r, ok := l.recs[id]
	if !ok {
		r = &spanRec{}
		l.recs[id] = r
	}
	return r
}

func (l *spanLog) get(id int) (spanRec, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.recs[id]
	if !ok {
		return spanRec{}, false
	}
	return *r, true
}

// wrap times a node's handler for requests that carry a span id and puts
// the id into the request context, so a cluster front tier forwards it.
func (l *spanLog) wrap(next http.Handler, backend bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(spanHeader)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		id, err := strconv.Atoi(h)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id)))
		d := time.Since(start)
		l.mu.Lock()
		rec := l.rec(id)
		if backend {
			rec.parts = append(rec.parts, d)
		} else {
			rec.handler = d
		}
		l.mu.Unlock()
	})
}

// spanTransport stamps the span id of the request context onto outgoing
// requests; with record set it also times each round trip as a part hop.
type spanTransport struct {
	base   http.RoundTripper
	log    *spanLog
	record bool
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := spanOf(r.Context())
	if !ok {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(id))
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	if t.record {
		d := time.Since(start)
		t.log.mu.Lock()
		rec := t.log.rec(id)
		rec.partRT = append(rec.partRT, d)
		t.log.mu.Unlock()
	}
	return resp, err
}

// httpClient builds a client with its own connection pool. With a span
// log it stamps span ids; record additionally times round trips.
func httpClient(conns int, spans *spanLog, record bool) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = tr
	if spans != nil {
		rt = &spanTransport{base: tr, log: spans, record: record}
	}
	return &http.Client{Transport: rt}, tr
}

// clientOptions configures internal/server/client with every
// fault-handling mechanism off: no retries, no hedging, no circuit
// breaker. A failure is counted once and never turned into a degraded
// success.
func clientOptions(hc *http.Client) client.Options {
	return client.Options{
		Timeout:    60 * time.Second,
		MaxRetries: -1,
		HTTPClient: hc,
	}
}

// node is one in-process maxisd: a Server behind a loopback listener.
type node struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

// startNode constructs a server, optionally lets prep attach journals,
// and serves it on a fresh loopback port.
func startNode(opts server.Options, spans *spanLog, backend bool, prep func(*server.Server) error) (*node, error) {
	s := server.New(opts)
	if prep != nil {
		if err := prep(s); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	h := s.Handler()
	if spans != nil {
		h = spans.wrap(h, backend)
	}
	n := &node{srv: s, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// ready blocks until the node answers GET /readyz with 200.
func (n *node) ready(hc *http.Client) error {
	for attempt := 0; ; attempt++ {
		resp, err := hc.Get(n.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("readyz status %d", resp.StatusCode)
		}
		if attempt == 100 {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the node down: listener first, then the scheduler and repair
// tier, then the journals. It waits for every goroutine it started.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.srv.BeginShutdown()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := n.srv.Drain(); derr != nil && err == nil {
		err = derr
	}
	if cerr := n.srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

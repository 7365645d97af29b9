package main

import (
	"fmt"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"distmwis/internal/stats"
)

// This file is the closed-loop load generator and the end-to-end
// measurements around it: per-op-type latency samples, process CPU over
// the timed window and the peak live heap.

// clients is the closed-loop concurrency: two connections, one per core of
// the reference host. Each sends its next request only after the previous
// one has been answered.
const clients = 2

// recorder collects outcomes. Latencies are kept per op type and only for
// successful requests; failures are counted against attempts.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // op type → latencies in ms
	attempted int
	failed    int
	answers   int   // successful solves whose answer was verified
	full      int   // ... of which served at full quality
	answerW   int64 // Σ answer weight of successful solves
	greedyW   int64 // Σ greedy-floor weight of the same graphs
	bad       []string
	reasons   map[string]int // failure message, digits masked → count
	genNS     atomic.Int64   // input-generation thread CPU, ns
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]float64), reasons: make(map[string]int)}
}

var digits = regexp.MustCompile(`[0-9]+`)

// done records one completed request; err is nil when it succeeded. The
// latency is kept for successes only.
func (r *recorder) done(op string, lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		msg := digits.ReplaceAllString(err.Error(), "N")
		if len(msg) > 160 {
			msg = msg[:160] + "…"
		}
		r.reasons[msg]++
		return
	}
	r.lat[op] = append(r.lat[op], float64(lat.Nanoseconds())/1e6)
}

// outcome turns a call's error and the answer's status into done's error.
func outcome(err error, status, msg string) error {
	if err == nil && status != "done" {
		err = fmt.Errorf("status %q: %s", status, msg)
	}
	return err
}

// answer records the quality figures of one verified successful solve.
func (r *recorder) answer(weight, greedy int64, full bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.answers++
	r.answerW += weight
	r.greedyW += greedy
	if full {
		r.full++
	}
}

// wrong records an answer that failed verification. Any entry fails the
// run.
func (r *recorder) wrong(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.bad) < 20 {
		r.bad = append(r.bad, msg)
	} else if len(r.bad) == 20 {
		r.bad = append(r.bad, "…")
	}
}

// ok is the number of successful requests so far.
func (r *recorder) ok() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted - r.failed
}

func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat = make(map[string][]float64)
	r.attempted, r.failed, r.answers, r.full = 0, 0, 0, 0
	r.answerW, r.greedyW = 0, 0
	r.reasons = make(map[string]int)
}

// median is the median of xs (interpolated); xs is left unchanged.
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

func mean(xs []float64) float64 { return stats.Summarize(xs).Mean }

// tailBlocks is how many consecutive blocks of a run's samples, in
// completion order, tailLatency splits them into.
const tailBlocks = 6

// tailLatency is latency_p99_ms: the median of the 99th percentiles of
// tailBlocks consecutive blocks of xs. A few seconds of stalls from outside
// the process lift one block's tail, not the reported figure. xs is left
// unchanged.
func tailLatency(xs []float64) float64 {
	var p99s []float64
	for c := 0; c < tailBlocks; c++ {
		block := append([]float64(nil), xs[c*len(xs)/tailBlocks:(c+1)*len(xs)/tailBlocks]...)
		if len(block) == 0 {
			continue
		}
		sort.Float64s(block)
		p99s = append(p99s, stats.Quantile(block, 0.99))
	}
	return median(p99s)
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling thread's CPU time so far. It is read with
// clock_gettime(CLOCK_THREAD_CPUTIME_ID), which counts to the nanosecond;
// getrusage(RUSAGE_THREAD) only moves at scheduler ticks.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// generate runs f, the benchmark's own input generation for one request,
// on a locked thread and charges the thread CPU it used to the recorder,
// so that cpu_ms_per_req can leave it out.
func (r *recorder) generate(f func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	f()
	r.genNS.Add(int64(threadCPU() - start))
}

// genCPU is the input-generation CPU charged so far.
func (r *recorder) genCPU() time.Duration { return time.Duration(r.genNS.Load()) }

// sampler watches the window in one-second steps: it reads the live heap
// (as of the most recent GC) every 5ms and keeps each second's peak, and
// at each second's end it records the requests completed, the process
// CPU used in that second (less the calibration kernel's) and, of that,
// the benchmark's input generation.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	// Per complete second of the window:
	peaks []float64 // peak live heap, bytes
	oks   []float64 // successful requests completed
	secs  []float64 // the second's measured length, s
	cpus  []float64 // process CPU less calibration, ms
	gens  []float64 // ... of which input generation, ms
}

func startSampler(rec *recorder, cal *calibrator) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		t0 := time.Now()
		next := t0.Add(time.Second)
		cpuNow := func() time.Duration { return cpuTime() - cal.cpu() }
		ok0, cpu0, gen0 := rec.ok(), cpuNow(), rec.genCPU()
		for {
			select {
			case <-tick.C:
			case <-s.stop:
				return
			}
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, sample[0].Value.Uint64())
			}
			if now := time.Now(); !now.Before(next) {
				ok, cpu, gen := rec.ok(), cpuNow(), rec.genCPU()
				s.peaks = append(s.peaks, float64(peak))
				s.oks = append(s.oks, float64(ok-ok0))
				s.secs = append(s.secs, now.Sub(t0).Seconds())
				s.cpus = append(s.cpus, float64((cpu-cpu0).Nanoseconds())/1e6)
				s.gens = append(s.gens, float64((gen-gen0).Nanoseconds())/1e6)
				peak, ok0, cpu0, gen0, t0 = 0, ok, cpu, gen, now
				next = next.Add(time.Second)
			}
		}
	}()
	return s
}

func (s *sampler) Stop() {
	close(s.stop)
	<-s.done
}

// window is one timed closed-loop phase. The per-second series cover the
// window's complete seconds; the run's figures are their medians, so a
// second or two of interference from outside the process does not decide
// them.
type window struct {
	peaks []float64 // per-second peak live heap, bytes
	oks   []float64 // per-second successful requests
	secs  []float64 // per-second measured length, s
	cpus  []float64 // per-second process CPU less calibration, ms
	gens  []float64 // per-second input-generation CPU, ms
	calUS []float64 // calibration kernel times over the window, µs
	// paused is the share of the window spent in calibration pauses:
	// waiting for the requests in flight to finish, then the kernel.
	paused float64
}

// slowdown is the host's slowdown over the window (see calib.go).
func (w window) slowdown() float64 { return slowdown(w.calUS) }

// rps is the median of the per-second completion rates.
func (w window) rps() float64 {
	rates := make([]float64, len(w.oks))
	for k, ok := range w.oks {
		rates[k] = ok / w.secs[k]
	}
	return median(rates)
}

// cores is the process CPU per second of the window (less calibration):
// about 2 when both clients keep a core busy.
func (w window) cores() float64 {
	var cpu, secs float64
	for k := range w.cpus {
		cpu += w.cpus[k] / 1e3
		secs += w.secs[k]
	}
	if secs == 0 {
		return 0
	}
	return cpu / secs
}

// cpuPerReq is the median over seconds of the program's CPU per request
// completed: the process CPU less the benchmark's input generation.
func (w window) cpuPerReq() float64 {
	var per []float64
	for k, ok := range w.oks {
		if ok > 0 {
			per = append(per, (w.cpus[k]-w.gens[k])/ok)
		}
	}
	return median(per)
}

// genPerReq is the median over seconds of the input-generation CPU per
// request completed.
func (w window) genPerReq() float64 {
	var per []float64
	for k, ok := range w.oks {
		if ok > 0 {
			per = append(per, w.gens[k]/ok)
		}
	}
	return median(per)
}

// closedLoop runs `clients` workers, each calling step (with its worker
// index) until d has passed since the start. A request in flight at the
// deadline completes and counts; the window ends when the last worker
// returns. Every calibEvery the workers pause between requests while cal
// times its kernel.
func closedLoop(d time.Duration, step func(worker int), rec *recorder, cal *calibrator) window {
	var wg sync.WaitGroup
	var g gate
	stopCal, calDone := make(chan struct{}), make(chan time.Duration, 1)
	cal.take()
	go g.calibrate(cal, stopCal, calDone)
	smp := startSampler(rec, cal)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				g.RLock()
				step(w)
				g.RUnlock()
			}
		}(w)
	}
	wg.Wait()
	close(stopCal)
	paused := <-calDone
	smp.Stop()
	return window{peaks: smp.peaks, oks: smp.oks, secs: smp.secs, cpus: smp.cpus, gens: smp.gens,
		calUS: cal.take(), paused: paused.Seconds() / time.Since(start).Seconds()}
}

// Command perfbench is the serving benchmark of distmwis: it boots maxisd
// in-process (server.New behind loopback listeners; for cluster-fanout a
// cluster.New front tier over three more servers), drives it closed-loop
// with two client connections on a seeded request sequence, checks every
// answer, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same inputs
// with benchmark-side spans and prints the per-layer metrics instead. See
// NOTES.md for the workloads and the definition of every metric.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload cold-inline --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"distmwis/internal/graph"
	"distmwis/internal/stats"
)

// Set-up is repeated and its median reported, so one slow listener or
// fsync does not decide setup_s: at least minSetups times, then until
// setupBudget has passed or maxSetups boots are done. A set-up of under a
// millisecond is thus sampled hundreds of times.
const (
	minSetups   = 9
	maxSetups   = 301
	setupBudget = 3 * time.Second
)

// warmup runs before the timed window, on the same request sequence, so
// lazy initialisation and the first GC cycles fall outside it.
const warmup = 1500 * time.Millisecond

// calibPerSetup is how many calibration kernels run after each boot.
const calibPerSetup = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "cold-inline | ref-mutate | cluster-fanout")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed sends byte-identical requests")
	seconds := fs.Float64("seconds", 30, "length of the timed window")
	traced := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build/work", "directory for the run's journals (created, then removed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	log, err := newAnswerLog(dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer log.close()
	b := &bench{name: *name, seed: *seed, traced: *traced == 1, workdir: dir, rec: newRecorder(), log: log}
	if b.traced {
		b.spans = newSpanLog()
		b.ops = &opLog{}
	}
	res, win, err := measure(b, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, msg := range b.rec.bad {
		fmt.Fprintf(stderr, "perfbench: %s: unverified answer: %s\n", *name, msg)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(stdout, "%-16s %-34s %14.6g %s\n", *name, k, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "%-16s set-up: median of %d boots\n", *name, b.boots)
	fmt.Fprintf(stdout, "%-16s host slowdown against the reference: %.4f in the window, %.4f at set-up\n", *name, win.slowdown(), b.setupSlow)
	fmt.Fprintf(stdout, "%-16s cores busy in the window: %.3f; calibration pauses: %.2f%% of it\n", *name, win.cores(), 100*win.paused)
	if b.measured != nil {
		for _, k := range names {
			if m, ok := b.measured[k]; ok {
				fmt.Fprintf(stdout, "%-16s %-34s %14.6g %s as measured\n", *name, k, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintf(stdout, "%-16s input generation: %.4g ms CPU per request (left out of cpu_ms_per_req)\n", *name, win.genPerReq())
	rec := b.rec
	for _, op := range []string{"solve", "read", "write"} {
		if n := len(rec.lat[op]); n > 0 {
			fmt.Fprintf(stdout, "%-16s %s latency samples: %d\n", *name, op, n)
		}
	}
	reasons := make([]string, 0, len(rec.reasons))
	for msg := range rec.reasons {
		reasons = append(reasons, msg)
	}
	sort.Slice(reasons, func(i, j int) bool { return rec.reasons[reasons[i]] > rec.reasons[reasons[j]] })
	for _, msg := range reasons {
		fmt.Fprintf(stdout, "%-16s failed ×%d: %s\n", *name, rec.reasons[msg], msg)
	}
	fmt.Fprintf(stdout, "%-16s attempted=%d failed=%d correct=%t\n", *name, res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one benchmark: input generation, repeated set-up, warm-up,
// the timed window, the answer checks and, in the traced run, the layer
// replay.
func measure(b *bench, d time.Duration) (res *result, win window, err error) {
	var handles []*graph.Graph
	if b.name == "ref-mutate" {
		for h := 0; h < refHandles; h++ {
			handles = append(handles, refHandle(h))
		}
	}

	cal := newCalibrator()
	var w workload
	var setups []float64
	began := time.Now()
	for k := 0; ; k++ {
		inst, nerr := newWorkload(b, handles)
		if nerr != nil {
			return nil, win, nerr
		}
		runtime.GC() // the previous instance's garbage is not this boot's cost
		start := time.Now()
		serr := inst.setup()
		setups = append(setups, time.Since(start).Seconds())
		if serr != nil {
			_ = inst.stop()
			return nil, win, fmt.Errorf("set-up: %w", serr)
		}
		// The host's speed next to each boot, with the instance up and idle.
		for c := 0; c < calibPerSetup; c++ {
			cal.measure()
		}
		if k+1 >= maxSetups || (k+1 >= minSetups && time.Since(began) > setupBudget) {
			w = inst
			break
		}
		if serr := inst.stop(); serr != nil {
			return nil, win, fmt.Errorf("tear-down: %w", serr)
		}
	}
	defer func() {
		if serr := w.stop(); serr != nil && err == nil {
			res, err = nil, fmt.Errorf("tear-down: %w", serr)
		}
	}()
	if rm, ok := w.(*refMutate); ok {
		rm.arm()
	}

	b.setupSlow = slowdown(cal.take())
	closedLoop(warmup, w.step, b.rec, cal)
	b.rec.reset()
	b.log.startTimed()
	if b.ops != nil {
		b.ops.entries = nil
	}

	before, err := scrape(w)
	if err != nil {
		return nil, win, err
	}
	b.boots = len(setups)
	win = closedLoop(d, w.step, b.rec, cal)
	after, err := scrape(w)
	if err != nil {
		return nil, win, err
	}
	if err := w.verify(); err != nil {
		return nil, win, err
	}

	rec := b.rec
	res = &result{
		Correct:   len(rec.bad) == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   make(map[string]metric),
	}
	if rec.attempted == 0 {
		return nil, win, fmt.Errorf("no request completed in the timed window")
	}
	if b.traced {
		if err := layerMetrics(b, w, before.delta(after), res.Metrics); err != nil {
			return nil, win, err
		}
		res.Metrics["bench.gen_cpu_ms"] = metric{win.genPerReq(), "ms"}
	} else if err := endToEnd(b, win, median(setups), res.Metrics); err != nil {
		return nil, win, err
	}
	return res, win, nil
}

// endToEnd fills the metrics a user of maxisd sees. Times and rates are
// put on the reference host's speed (calib.go): the window's figures with
// the window's slowdown, set-up with the slowdown measured next to the
// boots. The figures as measured are printed beside them.
func endToEnd(b *bench, win window, setup float64, out map[string]metric) error {
	rec := b.rec
	ok := rec.attempted - rec.failed
	read := "solve"
	write := "solve"
	if b.name == "ref-mutate" {
		read, write = "read", "write"
	}
	if len(rec.lat[read]) == 0 || len(rec.lat[write]) == 0 {
		return fmt.Errorf("no successful %s or %s request in the timed window", read, write)
	}
	tail := tailLatency(rec.lat[read])
	reads := append([]float64(nil), rec.lat[read]...)
	writes := append([]float64(nil), rec.lat[write]...)
	sort.Float64s(reads)
	sort.Float64s(writes)
	slow := win.slowdown()
	b.measured = map[string]metric{
		"setup_s":        {setup, "s"},
		"throughput_rps": {win.rps(), "1/s"},
		"latency_p50_ms": {stats.Quantile(reads, 0.5), "ms"},
		"latency_p99_ms": {tail, "ms"},
		"write_p50_ms":   {stats.Quantile(writes, 0.5), "ms"},
		"cpu_ms_per_req": {win.cpuPerReq(), "ms"},
	}
	for name, m := range b.measured {
		switch name {
		case "setup_s":
			m.Value /= b.setupSlow
		case "throughput_rps":
			m.Value *= slow
		default:
			m.Value /= slow
		}
		out[name] = m
	}
	out["peak_heap_mb"] = metric{median(win.peaks) / (1 << 20), "MB"}
	out["ok_frac"] = metric{float64(ok) / float64(rec.attempted), "frac"}
	out["full_frac"] = metric{rec.fullFrac(), "frac"}
	out["weight_ratio"] = metric{rec.weightRatio(), "ratio"}
	return nil
}

func (r *recorder) fullFrac() float64 {
	if r.answers == 0 {
		return 0
	}
	return float64(r.full) / float64(r.answers)
}

func (r *recorder) weightRatio() float64 {
	if r.greedyW == 0 {
		return 0
	}
	return float64(r.answerW) / float64(r.greedyW)
}

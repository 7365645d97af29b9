package main

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file measures the speed of the host the run lands on, so that the
// reported times can be put on one scale. On a shared host the other
// tenants change how fast the same instructions run: five back-to-back
// 30 s cold-inline runs of identical code read 19.3–24.4 ms of CPU per
// request. A fixed piece of the benchmark's own work, timed in pauses of
// the closed loop through the window, slowed down and sped up with them.
// Divided by it, the spread of those five runs fell from 15% to 5% of the
// median (NOTES.md, Host speed).
//
// The calibration kernel is plain Go work of the kinds the program does per
// request — hash-table inserts and probes over a table larger than the
// core's private caches, a sort, and decimal formatting and parsing — on
// buffers allocated once. It allocates nothing while it runs, so it never
// triggers or assists a garbage collection, and the program's heap cannot
// change its cost. It runs while no request is in flight (see gate), on
// every core at once (see measure), so neither the program's requests nor
// its background goroutines run beside it. The work is fixed and does not
// depend on the seed.

const (
	calibKeys  = 1 << 14 // keys hashed, sorted and formatted per kernel run
	calibTable = 1 << 18 // open-addressing slots (2 MiB of uint64)
	// calibRefUS is the reference host's kernel time in microseconds: the
	// median thread CPU time of one kernel run, with both lanes running,
	// over ten 30 s runs on a 2-vCPU shared VM (Intel Xeon, Go 1.24).
	// Times are reported as if the run had that host's speed: a time is
	// multiplied by calibRefUS / (the run's median kernel time), a rate
	// divided by it.
	calibRefUS = 3450.0
	// calibEvery is the interval between calibration pauses in the timed
	// window.
	calibEvery = 500 * time.Millisecond
)

// calibrator owns the kernel's buffers, one set per core, and the kernel
// times measured so far.
type calibrator struct {
	lanes [clients]*kernelBuf
	mu    sync.Mutex
	us    []float64    // kernel thread CPU times, µs
	cpuNS atomic.Int64 // Σ kernel thread CPU, ns
}

// kernelBuf is the working memory of one kernel run.
type kernelBuf struct {
	table []uint64
	keys  []uint32
	buf   []byte
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for l := range c.lanes {
		c.lanes[l] = &kernelBuf{
			table: make([]uint64, calibTable),
			keys:  make([]uint32, calibKeys),
			buf:   make([]byte, 0, calibKeys*11),
		}
		c.lanes[l].kernel() // touch every page before the first timed run
	}
	return c
}

// kernel runs the fixed work once and returns its checksum, which is the
// same on every run (TestCalibKernelFixed).
func (k *kernelBuf) kernel() uint64 {
	clear(k.table)
	x := uint32(2463534242)
	var sum uint64
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.keys[i] = x
		// Insert with linear probing; keys are stored +1 so 0 means empty.
		slot := (uint64(x) * 0x9e3779b97f4a7c15) >> (64 - 18)
		for k.table[slot] != 0 && k.table[slot] != uint64(x)+1 {
			slot = (slot + 1) & (calibTable - 1)
		}
		k.table[slot] = uint64(x) + 1
	}
	for i := range k.keys {
		// Probe for a key inserted earlier, in an order unrelated to the
		// insertion order.
		key := k.keys[(i*7919)&(calibKeys-1)]
		slot := (uint64(key) * 0x9e3779b97f4a7c15) >> (64 - 18)
		for k.table[slot] != uint64(key)+1 {
			slot = (slot + 1) & (calibTable - 1)
		}
		sum += slot
	}
	slices.Sort(k.keys)
	b := k.buf[:0]
	for _, key := range k.keys {
		b = strconv.AppendUint(b, uint64(key), 10)
		b = append(b, ',')
	}
	var v uint64
	for _, ch := range b {
		if ch == ',' {
			sum += v
			v = 0
			continue
		}
		v = v*10 + uint64(ch-'0')
	}
	k.buf = b
	return sum
}

// measure runs the kernel once on every core at the same time, each on a
// goroutine locked to its thread, and records each run's thread CPU time.
// With every P of the process busy, neither the garbage collector's idle
// workers nor the program's background goroutines run beside the kernel.
// Thread CPU leaves out time a thread was not running, so a preemption
// during the kernel does not count.
func (c *calibrator) measure() {
	var wg sync.WaitGroup
	for _, k := range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := threadCPU()
			k.sink += k.kernel()
			used := threadCPU() - start
			c.cpuNS.Add(int64(used))
			c.mu.Lock()
			c.us = append(c.us, float64(used.Nanoseconds())/1e3)
			c.mu.Unlock()
		}()
	}
	wg.Wait()
}

// cpu is the kernel's thread CPU so far; the sampler leaves it out of the
// process CPU.
func (c *calibrator) cpu() time.Duration { return time.Duration(c.cpuNS.Load()) }

// take returns the kernel times measured so far and starts a new series.
func (c *calibrator) take() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	us := c.us
	c.us = nil
	return us
}

// slowdown is how much slower than the reference host the kernel ran over
// the series us: its median time over calibRefUS. A time measured over the
// same interval is divided by it, a rate multiplied by it.
func slowdown(us []float64) float64 {
	if len(us) == 0 {
		return 1
	}
	return median(us) / calibRefUS
}

// gate lets the closed loop's workers run while no calibration is under
// way, and lets a calibration run only once every worker is between
// requests. A worker holds the read side for one request; the calibrator
// takes the write side, which waits for the requests in flight to finish
// and holds new ones back until the kernel is done. The program is thus
// idle while the kernel is timed.
type gate struct{ sync.RWMutex }

// calibrate runs a calibration pause every calibEvery until stop is
// closed, then closes done and returns the time spent in pauses, from
// asking for the write side to releasing it.
func (g *gate) calibrate(c *calibrator, stop <-chan struct{}, done chan<- time.Duration) {
	var paused time.Duration
	defer func() { done <- paused }()
	tick := time.NewTicker(calibEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		g.Lock()
		c.measure()
		g.Unlock()
		paused += time.Since(start)
	}
}

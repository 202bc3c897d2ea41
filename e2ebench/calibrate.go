package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark runs on small shared virtual machines, where the speed the
// host gives a run drifts by a fifth and more over minutes as other
// tenants come and go: the hypervisor steals vCPU time, and neighbours
// compete for caches and memory bandwidth. A drift that size hides any
// regression within the bounds. So the runner times a fixed calibration
// kernel again and again through the run — around every set-up, before
// every recording and between chunks of operations, never while an
// operation runs — and scales the run's timings to a host on which one
// kernel unit takes calRefMs: a time t becomes t × calRefMs / c and a
// rate x becomes x × c / calRefMs, where c is the median unit time in the
// same slice of the window (or in the set-up), so that a disturbance
// lasting some seconds is corrected where it happened. Before operations
// the kernel runs on as many threads at once as the workload's operations
// keep busy, and a unit lasts until its slowest thread is done: an
// operation that waits on two vCPUs feels the slower of them, and so does
// the calibration. Set-ups and recordings run on one thread and are scaled
// by a one-thread calibration.
//
// The kernel belongs to the benchmark, not to the program under test, and
// it does not allocate, so the program's garbage collector does not reach
// into it: a change to the program moves the scaled timings, not the
// calibration. The raw timings and the calibration are printed in the
// "# " line.

// calRefMs is the reference time of one kernel unit, near its median on a
// quiet 2-vCPU Xeon VM.
const calRefMs = 1.8

// calUnits is how many kernel units one calibration point times.
const calUnits = 4

// calChunk is how long operations run between calibration points.
const calChunk = 200 * time.Millisecond

// calState is one thread's kernel working set: 512 KiB of random-access
// updates, like the hash-indexed tables the engine probes, and a buffer to
// sort.
type calState struct {
	table [1 << 16]uint64
	sort  [2048]int
	seed  uint64
}

// unit runs one unit of the calibration kernel: pseudo-random updates to
// a table larger than the L1 and L2 caches, then a sort.
func (c *calState) unit() {
	x := c.seed
	for i := 0; i < 120000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h := (x >> 40) & (uint64(len(c.table)) - 1)
		if c.table[h]&1 == 0 {
			c.table[h] += x >> 7
		} else {
			c.table[h] ^= x
		}
	}
	for i := range c.sort {
		x = x*6364136223846793005 + 1442695040888963407
		c.sort[i] = int(x >> 33)
	}
	sort.Ints(c.sort[:])
	c.seed = x
}

// calibrate times one calibration point on width threads. It runs only
// while no operation does.
func (r *run) calibrate(width int) {
	for len(r.calState) < width {
		r.calState = append(r.calState, &calState{seed: 0x9e3779b97f4a7c15 + uint64(len(r.calState))})
	}
	for i := 0; i < calUnits; i++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, c := range r.calState[:width] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.unit()
			}()
		}
		wg.Wait()
		d := ms(time.Since(t0))
		k := calKey{r.slice, width}
		r.mu.Lock()
		r.cal[k] = append(r.cal[k], d)
		r.mu.Unlock()
	}
}

// calKey files calibration units by the slice of the window they were
// taken in (-1: set-up) and the threads they ran on.
type calKey struct{ slice, width int }

// scale is the factor that turns raw timings of work on width threads in
// the given slice (-1: set-up) into timings on the reference host.
func (r *run) scale(slice, width int) float64 {
	if med := Summarize(r.cal[calKey{slice, width}]).Median; med > 0 {
		return calRefMs / med
	}
	return 1
}

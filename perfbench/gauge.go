package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

const (
	// gaugeEvery is how often the speed gauge runs its loop. One loop takes
	// about a third of a millisecond, so the gauge takes about 1% of one CPU.
	gaugeEvery = 25 * time.Millisecond
	// gaugeRef is the loop time, in nanoseconds, that the end-to-end times
	// are scaled to: the gauge's usual median on the reference machine.
	gaugeRef = 340e3
)

// gauge measures how fast the machine runs fixed code while something else
// is timed: the thread CPU time of one gaugeLoop, sampled every gaugeEvery on
// a locked OS thread. Thread CPU time leaves out time the thread waited to
// run and time the hypervisor stole, so the samples follow only the speed of
// the CPU the loop got. On a shared host that speed drifts by tens of percent
// over minutes, and the daemons' latency and CPU time drift with it; a time
// multiplied by gaugeRef over the gauge's median is that time at the
// reference speed.
type gauge struct {
	stop chan struct{}
	done chan struct{}
	ns   []float64
}

// startGauge starts the gauge's thread; finish stops it and waits for it.
func startGauge() *gauge {
	g := &gauge{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(gaugeEvery)
		defer tick.Stop()
		for {
			t0 := threadCPUTime()
			gaugeSink += gaugeLoop()
			g.ns = append(g.ns, float64(threadCPUTime()-t0))
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// finish stops the gauge and returns the median loop time in nanoseconds.
// The gauge has sampled at least once by then.
func (g *gauge) finish() float64 {
	close(g.stop)
	<-g.done
	return median(g.ns)
}

// atRefSpeed scales a time measured while the gauge's median loop took
// gaugeNs to the reference speed.
func atRefSpeed(t, gaugeNs float64) float64 { return t * gaugeRef / gaugeNs }

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPUTime is the calling OS thread's CPU time in nanoseconds. The
// call cannot fail for this clock and a valid pointer, so its error is not
// read.
func threadCPUTime() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

var (
	gaugeTable [1 << 17]uint64 // 1 MiB: beyond L1, within L2/L3
	gaugeSink  uint64
)

// gaugeLoop is the fixed work the gauge times: pseudo-random reads and
// writes over gaugeTable with a data-dependent branch.
func gaugeLoop() uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (uint64(len(gaugeTable)) - 1)
		acc += gaugeTable[j]
		gaugeTable[j] = acc ^ x
		if acc&1 == 0 {
			acc += x >> 3
		}
	}
	return acc
}

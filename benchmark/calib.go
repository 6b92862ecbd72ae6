package main

import (
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few shared virtual CPUs whose speed changes by
// tens of percent within seconds (a neighbour on the sibling thread, a
// stolen core) and again over minutes; measured as they come, ten runs of
// the same code disagree by more than any bound worth having. So the timed
// window is a sequence of rounds, and between every two rounds, with no
// request in flight, the benchmark times a fixed batch of standard-library
// modular exponentiations on as many threads as the system under test may
// use. The batch never changes and shares no code with the repository, so
// its cost moves with the machine and not with the program. Each round's
// timings are then restated at the speed its two neighbouring calibrations
// saw. Nothing but the system under test runs while a request is timed.

const (
	// calibExps 512-bit exponentiations make one thread's batch.
	calibExps = 160
	// calibNominalMs is the batch's cost on the machine the restated metrics
	// are quoted for (the development box when nothing disturbs it). It only
	// fixes their scale.
	calibNominalMs = 13.0
	// settlePause precedes every reading: what the work before it left
	// running in the background (nonce-pool refills, garbage collection, a
	// closing deployment) drains here and not under the yardstick, which
	// would otherwise move with the program. Without it a reading costs
	// about 8 % more wall-clock time; 30 ms buys nothing over 5.
	settlePause = 5 * time.Millisecond
)

// calibration is one reading of the yardstick: the batch's mean cost over
// the threads, in wall-clock time and in thread CPU time. Wall-clock time
// sees everything a request's latency sees; CPU time is blind to a stolen
// or shared core, as the process's own CPU time is.
type calibration struct {
	wallMs, cpuMs float64
}

// speed factors: above 1 the machine was slower than nominal.
func (c calibration) wall() float64 { return c.wallMs / calibNominalMs }
func (c calibration) cpu() float64  { return c.cpuMs / calibNominalMs }

// meanReading is the reading to hold a span against that ran among these
// calibrations: a round against the two on either side of it, a whole
// phase against all of its own.
func meanReading(cs ...calibration) calibration {
	var mean calibration
	for _, c := range cs {
		mean.wallMs += c.wallMs / float64(len(cs))
		mean.cpuMs += c.cpuMs / float64(len(cs))
	}
	return mean
}

// calibrator owns the fixed batch.
type calibrator struct {
	x, e, m *big.Int
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(512))
	operand := func() *big.Int {
		b := make([]byte, 64)
		rng.Read(b)
		b[0] |= 0x80
		b[63] |= 1
		return new(big.Int).SetBytes(b)
	}
	return &calibrator{x: operand(), e: operand(), m: operand()}
}

// read lets the process settle, runs the batch on GOMAXPROCS threads at
// once and returns when all have finished. No request may be in flight.
func (c *calibrator) read() calibration {
	time.Sleep(settlePause)
	n := runtime.GOMAXPROCS(0)
	per := make([]calibration, n)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func(r *calibration) {
			defer wg.Done()
			// Thread CPU time is only meaningful while the goroutine stays on
			// one thread.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			out := new(big.Int)
			t0, c0 := time.Now(), threadCPU()
			for k := 0; k < calibExps; k++ {
				out.Exp(c.x, c.e, c.m)
			}
			r.cpuMs = float64(threadCPU()-c0) / float64(time.Millisecond)
			r.wallMs = msSince(t0)
		}(&per[i])
	}
	wg.Wait()
	return meanReading(per...)
}

// threadCPU is the calling thread's CPU time so far, from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID): getrusage(RUSAGE_THREAD) only
// advances in scheduler ticks, far coarser than one batch.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

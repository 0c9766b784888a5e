package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on shares its CPUs with other tenants, and
// the speed it gives a process drifts by tens of percent over minutes. A
// fixed reference computation is therefore timed right before and right
// after every iteration, while the program under test is idle, and each
// iteration's times are scaled to the reference's nominal speed.

// refNominal is the reference chunk's wall and CPU time on the
// uncontended 2-vCPU host the benchmark was sized on.
const refNominal = 0.001

// refChunks is how many chunks one reference reading times.
const refChunks = 15

// refSink keeps the reference computation from being optimized away.
var refSink uint64

// referenceChunk is about a millisecond of integer work on a small array.
// It touches nothing of the program under test and allocates nothing.
func referenceChunk() {
	var a [512]uint64
	s := uint64(0x9E3779B97F4A7C15)
	for r := 0; r < 720; r++ {
		for i := range a {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			a[i] += s ^ a[(i*7)&511]
		}
	}
	refSink += a[s&511]
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostSpeed is one reference reading: the median wall and CPU time of a
// chunk.
type hostSpeed struct {
	wall, cpu float64
}

// readHostSpeed collects garbage first, so no collector work overlaps the
// chunks, then times refChunks chunks on one thread.
func readHostSpeed() hostSpeed {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	walls := make([]float64, refChunks)
	cpus := make([]float64, refChunks)
	for i := range walls {
		w0, c0 := time.Now(), threadCPU()
		referenceChunk()
		walls[i] = time.Since(w0).Seconds()
		cpus[i] = (threadCPU() - c0).Seconds()
	}
	sort.Float64s(walls)
	sort.Float64s(cpus)
	return hostSpeed{wall: walls[refChunks/2], cpu: cpus[refChunks/2]}
}

// between averages two readings that bracket an iteration.
func between(a, b hostSpeed) hostSpeed {
	return hostSpeed{wall: (a.wall + b.wall) / 2, cpu: (a.cpu + b.cpu) / 2}
}

package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// rtSnap is a point sample of the Go runtime counters the benchmark
// reports deltas of.
type rtSnap struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return rtSnap{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocBytes: s[2].Value.Uint64()}
}

// heapObjects returns the bytes held by heap objects (live plus not
// yet swept).
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakSampler polls heap size (and any extra probes) on a fixed period
// between start and stop.
type peakSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peak  uint64
	probe func()
}

func startSampler(every time.Duration, probe func()) *peakSampler {
	ps := &peakSampler{stop: make(chan struct{}), done: make(chan struct{}), probe: probe}
	go func() {
		defer close(ps.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if h := heapObjects(); h > ps.peak {
				ps.peak = h
			}
			if ps.probe != nil {
				ps.probe()
			}
			select {
			case <-t.C:
			case <-ps.stop:
				return
			}
		}
	}()
	return ps
}

// liveHeap collects garbage and returns the heap that stays: the
// baseline a pass's peak is measured from. Taken after input
// generation and before setup, it holds the benchmark's own inputs.
func liveHeap() uint64 {
	runtime.GC()
	return heapObjects()
}

// finish stops the sampler and returns the peak heap above base in MB.
func (ps *peakSampler) finish(base uint64) float64 {
	close(ps.stop)
	<-ps.done
	return (float64(ps.peak) - float64(base)) / (1 << 20)
}

// span measures CPU and Go runtime counters over one measured interval.
type span struct {
	wall time.Time
	cpu  time.Duration
	rt   rtSnap
}

func markSpan() span { return span{wall: time.Now(), cpu: processCPU(), rt: readRuntime()} }

// spanDelta is what happened between two marks.
type spanDelta struct {
	wall, cpu  time.Duration
	gcCPUFrac  float64
	allocBytes uint64
}

func (a span) to(b span) spanDelta {
	d := spanDelta{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, allocBytes: b.rt.allocBytes - a.rt.allocBytes}
	if tot := b.rt.totalCPU - a.rt.totalCPU; tot > 0 {
		d.gcCPUFrac = (b.rt.gcCPU - a.rt.gcCPU) / tot
	}
	return d
}

package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// window is the timed part of a run. It accumulates wall time, heap
// allocation counters, GC counters and process CPU time only while it is
// running, so checks made between frames stay out of every metric.
type window struct {
	running bool
	t0      time.Time
	m0      runtime.MemStats
	cpu0    time.Duration

	wall    time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
	cpu     time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (w *window) resume() {
	if w.running {
		return
	}
	runtime.ReadMemStats(&w.m0)
	w.cpu0 = cpuTime()
	w.running = true
	w.t0 = time.Now()
}

func (w *window) pause() {
	if !w.running {
		return
	}
	w.wall += time.Since(w.t0)
	w.running = false
	w.cpu += cpuTime() - w.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.mallocs += m.Mallocs - w.m0.Mallocs
	w.bytes += m.TotalAlloc - w.m0.TotalAlloc
	w.gcs += m.NumGC - w.m0.NumGC
	w.pauseNs += m.PauseTotalNs - w.m0.PauseTotalNs
}

// elapsed is the window's wall time so far, including a running segment.
func (w *window) elapsed() time.Duration {
	if w.running {
		return w.wall + time.Since(w.t0)
	}
	return w.wall
}

// heapLiveMB forces a collection and reports the live heap, with live
// (the workload's world) kept reachable through the collection.
func heapLiveMB(live any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(live)
	return float64(m.HeapAlloc) / 1e6
}

// samples is a list of durations, reported as quantiles.
type samples []time.Duration

// quantile returns the q-quantile by linear interpolation between order
// statistics (the "inclusive" method of Python's statistics.quantiles).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	f := pos - float64(lo)
	return time.Duration(float64(c[lo])*(1-f) + float64(c[hi])*f)
}

func (s samples) ms(q float64) float64 { return float64(s.quantile(q)) / 1e6 }

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// timed runs fn and appends its duration to s.
func timed(s *samples, fn func() error) error {
	t := time.Now()
	err := fn()
	*s = append(*s, time.Since(t))
	return err
}

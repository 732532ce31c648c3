package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far (getrusage). The
// engine's workers, the embedded miniredis and the benchmark's own source
// and sink all run in this process, so a delta around a run is the run's
// whole CPU bill.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const heapMetric = "/gc/heap/live:bytes"

// heapBytes reads the live heap as of the last garbage collection. Its peak
// over a run depends on what was live at each collection, not on when the
// sampler happened to look, which keeps it steadier than total heap bytes.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak live heap above a baseline taken after a
// forced GC, so the benchmark's own pre-generated inputs do not count as
// run memory.
type heapSampler struct {
	base uint64
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{base: heapBytes(), stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.observe()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := heapBytes()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Stop ends sampling and returns the peak heap growth in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	h.observe()
	p := h.peak.Load()
	if p < h.base {
		return 0
	}
	return float64(p-h.base) / (1 << 20)
}

// quantile returns the q-quantile of sorted (nearest rank below).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func sortInt64(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// median of float64 values (mean of the middle pair for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d int64) float64 { return float64(d) / 1e6 }

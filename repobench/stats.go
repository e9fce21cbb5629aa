package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler records the live Go heap — the bytes a garbage collection
// found reachable — at the end of every collection, by polling
// runtime/metrics (which reads without stopping the world). Unlike the
// heap between collections, the live heap does not depend on when the
// collector happens to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	live []float64 // MiB, one per completed collection
}

// startHeapSampler polls every millisecond until stopped.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		samples := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(samples)
		cycles := samples[0].Value.Uint64()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				metrics.Read(samples)
				if len(h.live) == 0 || samples[0].Value.Uint64() != cycles {
					h.live = append(h.live, float64(samples[1].Value.Uint64())/(1<<20))
				}
				return
			case <-tick.C:
			}
			metrics.Read(samples)
			if c := samples[0].Value.Uint64(); c != cycles {
				cycles = c
				h.live = append(h.live, float64(samples[1].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it, and returns the 75th percentile
// of the live heap over the collections it saw, in MiB: the heap the
// program holds through its working phases (a training job's ranks, a
// fleet's caches), which neither the idle moments between jobs nor a rare
// collection that lands on a transient allocation can move.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.live, 0.75)
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a percentile read off fewer is one or two draws.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs and whether at
// least minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// quartiles returns the first quartile, median and third quartile of
// xs with the same (exclusive) method as Python's statistics.quantiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(j int) float64 {
		// statistics.quantiles(method="exclusive"), n=4.
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(pos)
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtime/metrics samples read around a measured phase.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

type rtSnapshot [6]float64

func readRuntime() rtSnapshot {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out rtSnapshot
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// runtimeDelta is the runtime's work between two snapshots.
type runtimeDelta struct {
	allocObjects, allocBytes, gcCycles float64
	gcCPU, busyCPU                     float64 // seconds
}

func (a rtSnapshot) to(b rtSnapshot) runtimeDelta {
	return runtimeDelta{
		allocObjects: b[0] - a[0],
		allocBytes:   b[1] - a[1],
		gcCycles:     b[2] - a[2],
		gcCPU:        b[3] - a[3],
		busyCPU:      (b[4] - a[4]) - (b[5] - a[5]),
	}
}

func (d *runtimeDelta) add(e runtimeDelta) {
	d.allocObjects += e.allocObjects
	d.allocBytes += e.allocBytes
	d.gcCycles += e.gcCycles
	d.gcCPU += e.gcCPU
	d.busyCPU += e.busyCPU
}

// gcCPUFrac is the GC's share of the CPU time the process used.
func (d runtimeDelta) gcCPUFrac() float64 { return frac(d.gcCPU, d.busyCPU) }

// heapBlock is how many local ops share one live-heap peak; a run
// reports the median of its blocks' peaks. The peak over a whole run
// reads the rarest moment a GC happened to land on: on n1000_plan
// (about one GC per op) its quartiles over ten runs spread 12 %, those
// of the median of 10-op blocks' peaks 3 %.
const heapBlock = 10

// livePeak is the peak of /gc/heap/live:bytes, the heap a GC cycle
// found reachable, over the cycles since the last takePeak. Reading it
// after each op would see only the op's last cycle (paper51_sweep runs
// about 28 per op), so watchGC reads it after every cycle.
var livePeak atomic.Uint64

// gcSentinel holds pointers, so it is never batched with other tiny
// allocations and its finalizer runs after the cycle that frees it.
type gcSentinel struct{ _ [2]*int }

// watchGC makes every GC cycle fold its live heap into livePeak: a
// finalizer on a fresh sentinel runs after each cycle, reads the
// metric and arms the next sentinel.
func watchGC() {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var arm func()
	arm = func() {
		runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
			metrics.Read(sample)
			notePeak(sample[0].Value.Uint64())
			arm()
		})
	}
	arm()
}

func notePeak(v uint64) {
	for p := livePeak.Load(); v > p && !livePeak.CompareAndSwap(p, v); p = livePeak.Load() {
	}
}

// takePeak returns the peak since the last take and starts a new one.
func takePeak() uint64 { return livePeak.Swap(0) }

// liveNow reads /gc/heap/live:bytes as the last GC cycle left it.
func liveNow() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func fmtN(v float64) string { return fmt.Sprintf("%.6g", v) }

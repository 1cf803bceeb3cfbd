package main

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"time"
)

// The speed of the shared host this benchmark is tuned on drifts by a
// third and more over tens of seconds (noisy neighbours), far more than
// the bounds a change is judged by. An end-to-end run therefore times a
// fixed reference kernel between its ops and scales every timing to the
// speed at which the kernel takes refNominalMs:
//
//	calibrated = measured × refNominalMs / kernel time nearby
//
// The kernel is benchmark code, independent of the program, and mixes
// the program's kinds of work — a nearest-neighbour tour over 1000
// points (the planner's distance scans) and a heap-ordered event loop
// with a boxed allocation per event (the simulator and its garbage) —
// because the drift hits that mix harder than plain arithmetic: on the
// 5 s blocks of one process, op times ranged 1.26–1.58× while the ratio
// of op time to kernel time ranged 1.12–1.20×. Raw timings are printed
// beside the calibrated ones.

// refNominalMs is the kernel's time at the reference speed: its
// typical time on the 2-vCPU VM the benchmark was tuned on.
const refNominalMs = 7.5

// refWindow is how many kernel samples on each side of a local op
// calibrate it: one to two seconds of the run.
const refWindow = 6

var refSink float64

// refPoints are the tour kernel's fixed points.
var refPoints = func() [][2]float64 {
	r := rand.New(rand.NewPCG(3, 4))
	ps := make([][2]float64, 1000)
	for i := range ps {
		ps[i] = [2]float64{r.Float64() * 800, r.Float64() * 800}
	}
	return ps
}()

// refTour builds a nearest-neighbour tour over refPoints.
func refTour() {
	ps := refPoints
	used := make([]bool, len(ps))
	cur, total := 0, 0.0
	used[0] = true
	for k := 1; k < len(ps); k++ {
		best, bd := -1, math.Inf(1)
		for j, p := range ps {
			if used[j] {
				continue
			}
			dx, dy := p[0]-ps[cur][0], p[1]-ps[cur][1]
			if d := math.Sqrt(dx*dx + dy*dy); d < bd {
				best, bd = j, d
			}
		}
		used[best] = true
		total += bd
		cur = best
	}
	refSink += total
}

type refEvent struct {
	t  float64
	id int
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// refEvents walks 8 walkers round the first 40 refPoints in time order.
func refEvents() {
	ps := refPoints[:40]
	q := &refQueue{}
	var at [8]int
	for w := range at {
		at[w] = 5 * w
		heap.Push(q, refEvent{float64(w), w})
	}
	sum := 0.0
	for k := 0; k < 30_000; k++ {
		e := heap.Pop(q).(refEvent)
		a := ps[at[e.id]]
		at[e.id] = (at[e.id] + 1) % len(ps)
		b := ps[at[e.id]]
		sum += e.t
		heap.Push(q, refEvent{e.t + math.Hypot(a[0]-b[0], a[1]-b[1])/2, e.id})
	}
	refSink += sum
}

// refSample runs the kernel once and returns its time in ms.
func refSample() float64 {
	t0 := time.Now()
	refTour()
	refTour()
	refEvents()
	return ms(time.Since(t0))
}

// refFactor is the calibration factor of kernel samples xs.
func refFactor(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return refNominalMs / med
}

// windowFactors calibrates op i by the kernel samples refs[i-w … i+w].
func windowFactors(refs []float64) []float64 {
	f := make([]float64, len(refs))
	for i := range refs {
		f[i] = refFactor(refs[max(0, i-refWindow):min(len(refs), i+refWindow+1)])
	}
	return f
}

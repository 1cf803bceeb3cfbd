package metrics

import (
	"math"
	"math/rand"
	"testing"

	"tctp/internal/stats"
)

// The oracles below are the materialising implementations the
// scratch-buffer aggregates replaced: a filtered copy of the visit log,
// a fresh interval slice per target, and the same stats calls on it.
// The aggregates must reproduce them bit for bit.

func oracleIntervals(r *Recorder, target int) []float64 {
	ts := r.visits[target]
	if len(ts) < 2 {
		return nil
	}
	out := make([]float64, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = ts[i] - ts[i-1]
	}
	return out
}

func oracleIntervalsAfter(r *Recorder, target int, t0 float64) []float64 {
	ts := r.visits[target]
	var kept []float64
	for _, t := range ts {
		if t >= t0 {
			kept = append(kept, t)
		}
	}
	if len(kept) < 2 {
		return nil
	}
	out := make([]float64, len(kept)-1)
	for i := 1; i < len(kept); i++ {
		out[i-1] = kept[i] - kept[i-1]
	}
	return out
}

// oracleAvg averages reduce(iv) over the member targets whose interval
// series iv has at least minLen entries, as the parent's AvgSD (minLen
// 2, SampleSD) and AvgDCDT (minLen 1, Mean) aggregates did.
func oracleAvg(r *Recorder, targets []int, series func(t int) []float64,
	minLen int, reduce func([]float64) float64) float64 {
	var acc stats.Accumulator
	r.eachTarget(targets, func(t int) {
		if iv := series(t); len(iv) >= minLen {
			acc.Add(reduce(iv))
		}
	})
	return acc.Mean()
}

func oracleMaxIntervalOver(r *Recorder, targets []int) float64 {
	m := 0.0
	r.eachTarget(targets, func(t int) {
		for _, iv := range oracleIntervals(r, t) {
			if iv > m {
				m = iv
			}
		}
	})
	return m
}

// randomLog records a time-ordered visit log over n targets: duplicate
// timestamps (within a target and across targets), targets with zero
// or one visit, and both integral and fractional times.
func randomLog(rnd *rand.Rand, n int) *Recorder {
	r := NewRecorder(n)
	now := 0.0
	for i := rnd.Intn(40 * n); i > 0; i-- {
		switch rnd.Intn(4) {
		case 0: // same instant as the previous visit
		case 1:
			now += float64(1 + rnd.Intn(50))
		default:
			now += rnd.Float64() * 100
		}
		r.OnVisit(0, rnd.Intn(n), now)
	}
	// Pin a sparse tail: the last two targets get at most one visit.
	if n >= 3 {
		r.visits[n-1] = r.visits[n-1][:0]
		if v := r.visits[n-2]; len(v) > 1 {
			r.visits[n-2] = v[:1]
		}
	}
	return r
}

// cutoffs returns the t0 values to probe: before the first visit, on a
// visit time (including a duplicated one), between visits, and past
// the last visit.
func cutoffs(rnd *rand.Rand, r *Recorder) []float64 {
	out := []float64{math.Inf(-1), -1, 0}
	last := 0.0
	for t := range r.visits {
		ts := r.visits[t]
		if len(ts) == 0 {
			continue
		}
		out = append(out, ts[rnd.Intn(len(ts))], ts[len(ts)-1], ts[0]+0.5)
		last = math.Max(last, ts[len(ts)-1])
	}
	return append(out, last, last+1, math.Inf(1))
}

// subsets returns the target lists to probe: all (nil), none (empty,
// non-nil), single targets, a random subset in random order, and one
// with repeated ids.
func subsets(rnd *rand.Rand, n int) [][]int {
	out := [][]int{nil, {}, {0}, {n - 1}}
	out = append(out, rnd.Perm(n)[:1+rnd.Intn(n)])
	return append(out, []int{0, 0, n - 1, n / 2})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSeries(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestAggregatesMatchMaterialisingOracle pins the suffix search and
// the scratch-buffer aggregates to the materialising implementations
// bit for bit on random time-ordered logs.
func TestAggregatesMatchMaterialisingOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		n := 3 + rnd.Intn(10)
		r := randomLog(rnd, n)
		check := func(name string, got, want float64) {
			t.Helper()
			if !sameBits(got, want) {
				t.Fatalf("seed %d: %s = %v (%#x), oracle %v (%#x)", seed, name,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		whole := func(t int) []float64 { return oracleIntervals(r, t) }
		for target := 0; target < n; target++ {
			if !sameSeries(r.Intervals(target), whole(target)) {
				t.Fatalf("seed %d: Intervals(%d) differs from the oracle", seed, target)
			}
		}
		check("AvgSD", r.AvgSD(), oracleAvg(r, nil, whole, 2, stats.SampleSD))
		check("AvgDCDT", r.AvgDCDT(), oracleAvg(r, nil, whole, 1, stats.Mean))
		check("MaxInterval", r.MaxInterval(), oracleMaxIntervalOver(r, nil))
		for _, sub := range subsets(rnd, n) {
			check("AvgSDOver", r.AvgSDOver(sub), oracleAvg(r, sub, whole, 2, stats.SampleSD))
			check("AvgDCDTOver", r.AvgDCDTOver(sub), oracleAvg(r, sub, whole, 1, stats.Mean))
			check("MaxIntervalOver", r.MaxIntervalOver(sub), oracleMaxIntervalOver(r, sub))
		}
		for _, t0 := range cutoffs(rnd, r) {
			after := func(t int) []float64 { return oracleIntervalsAfter(r, t, t0) }
			for target := 0; target < n; target++ {
				if !sameSeries(r.IntervalsAfter(target, t0), after(target)) {
					t.Fatalf("seed %d: IntervalsAfter(%d, %v) differs from the oracle", seed, target, t0)
				}
			}
			check("AvgSDAfter", r.AvgSDAfter(t0), oracleAvg(r, nil, after, 2, stats.SampleSD))
			check("AvgDCDTAfter", r.AvgDCDTAfter(t0), oracleAvg(r, nil, after, 1, stats.Mean))
			for _, sub := range subsets(rnd, n) {
				check("AvgSDAfterOver", r.AvgSDAfterOver(sub, t0),
					oracleAvg(r, sub, after, 2, stats.SampleSD))
				check("AvgDCDTAfterOver", r.AvgDCDTAfterOver(sub, t0),
					oracleAvg(r, sub, after, 1, stats.Mean))
			}
		}
	}
}

// TestAggregatesAllocateAtMostOnce pins the scratch buffer: each
// aggregate call allocates at most its one buffer, however many
// targets and visits it reads.
func TestAggregatesAllocateAtMostOnce(t *testing.T) {
	r := randomLog(rand.New(rand.NewSource(7)), 12)
	sub := []int{1, 3, 5, 7}
	t0 := r.visits[0][len(r.visits[0])/2]
	for name, fn := range map[string]func(){
		"AvgSD":            func() { r.AvgSD() },
		"AvgSDOver":        func() { r.AvgSDOver(sub) },
		"AvgSDAfter":       func() { r.AvgSDAfter(t0) },
		"AvgSDAfterOver":   func() { r.AvgSDAfterOver(sub, t0) },
		"AvgDCDT":          func() { r.AvgDCDT() },
		"AvgDCDTOver":      func() { r.AvgDCDTOver(sub) },
		"AvgDCDTAfter":     func() { r.AvgDCDTAfter(t0) },
		"AvgDCDTAfterOver": func() { r.AvgDCDTAfterOver(sub, t0) },
		"MaxInterval":      func() { r.MaxInterval() },
		"MaxIntervalOver":  func() { r.MaxIntervalOver(sub) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs > 1 {
			t.Errorf("%s: %v allocs per call, want ≤ 1", name, allocs)
		}
	}
}

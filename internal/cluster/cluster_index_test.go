package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tctp/internal/geom"
	"tctp/internal/xrand"
)

// TestKMeansMatchesBrute pins the indexed-assignment, incremental-
// seeding KMeans to the original brute implementation bit-for-bit,
// including k values on both sides of the index threshold and
// degenerate (duplicate-heavy, collinear) point sets.
func TestKMeansMatchesBrute(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	sets := map[string][]geom.Point{}

	uniform := make([]geom.Point, 300)
	for i := range uniform {
		uniform[i] = geom.Pt(rnd.Float64()*800, rnd.Float64()*800)
	}
	sets["uniform"] = uniform

	dup := make([]geom.Point, 0, 200)
	for i := 0; i < 50; i++ {
		p := geom.Pt(rnd.Float64()*100, rnd.Float64()*100)
		for j := 0; j < 4; j++ {
			dup = append(dup, p)
		}
	}
	sets["duplicates"] = dup

	col := make([]geom.Point, 150)
	for i := range col {
		col[i] = geom.Pt(float64(i)*3, 0)
	}
	sets["collinear"] = col

	clustered := make([]geom.Point, 0, 240)
	for c := 0; c < 6; c++ {
		cx, cy := rnd.Float64()*800, rnd.Float64()*800
		for i := 0; i < 40; i++ {
			clustered = append(clustered, geom.Pt(cx+rnd.NormFloat64()*4, cy+rnd.NormFloat64()*4))
		}
	}
	sets["clustered"] = clustered

	for name, pts := range sets {
		for _, k := range []int{1, 2, 5, indexThreshold - 1, indexThreshold, indexThreshold + 8, 64} {
			if k > len(pts) {
				continue
			}
			for seed := uint64(1); seed <= 3; seed++ {
				got := KMeans(pts, k, xrand.New(seed), 50)
				want := KMeansBrute(pts, k, xrand.New(seed), 50)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d seed=%d: assignment differs at point %d: indexed %d, brute %d",
							name, k, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSeedPlusPlusMatchesBrute pins the incremental k-means++ distance
// maintenance to the per-round full recompute.
func TestSeedPlusPlusMatchesBrute(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	pts := make([]geom.Point, 250)
	for i := range pts {
		pts[i] = geom.Pt(rnd.Float64()*800, rnd.Float64()*800)
	}
	// Append duplicates so the total==0 fallback path gets visited for
	// large k over a small distinct set.
	small := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(1, 1)}
	for _, tc := range []struct {
		pts []geom.Point
		k   int
	}{
		{pts, 1}, {pts, 7}, {pts, 40}, {pts, 128},
		{small, 4}, {small, 5},
	} {
		for seed := uint64(1); seed <= 5; seed++ {
			got := seedPlusPlus(tc.pts, tc.k, xrand.New(seed))
			want := seedPlusPlusBrute(tc.pts, tc.k, xrand.New(seed))
			if len(got) != len(want) {
				t.Fatalf("k=%d seed=%d: %d centres, want %d", tc.k, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d seed=%d: centre %d is %v, want %v", tc.k, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// KMeansBrute is the original KMeans implementation — full-recompute
// k-means++ seeding and linear-scan Lloyd assignment — kept in the
// tests as the reference the indexed path must reproduce bit-for-bit
// and as the baseline of BenchmarkPlanKMeansBrute. Given sources
// seeded identically, KMeans and KMeansBrute return identical
// assignments.
func KMeansBrute(pts []geom.Point, k int, src *xrand.Source, maxIter int) []int {
	n := len(pts)
	if k < 1 || k > n {
		panic(fmt.Sprintf("cluster: KMeans k=%d with %d points", k, n))
	}
	if maxIter <= 0 {
		maxIter = 100
	}

	centres := seedPlusPlusBrute(pts, k, src)
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centres {
				if d := p.Dist2(ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}

		counts := make([]int, k)
		sums := make([]geom.Vec, k)
		for i, p := range pts {
			c := assign[i]
			counts[c]++
			sums[c] = geom.Vec{X: sums[c].X + p.X, Y: sums[c].Y + p.Y}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i, p := range pts {
					if d := p.Dist2(centres[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centres[c] = pts[far]
				assign[far] = c
				changed = true
				continue
			}
			centres[c] = geom.Pt(sums[c].X/float64(counts[c]), sums[c].Y/float64(counts[c]))
		}
		if !changed {
			break
		}
	}
	repairEmpty(pts, assign, centres)
	return assign
}

// seedPlusPlusBrute is the original k-means++ seeding with a full
// nearest-centre recompute every round, kept in the tests as the
// reference for the incremental path.
func seedPlusPlusBrute(pts []geom.Point, k int, src *xrand.Source) []geom.Point {
	centres := make([]geom.Point, 0, k)
	centres = append(centres, pts[src.Intn(len(pts))])
	d2 := make([]float64, len(pts))
	for len(centres) < k {
		total := 0.0
		for i, p := range pts {
			best := math.Inf(1)
			for _, c := range centres {
				if d := p.Dist2(c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with centres; duplicate
			// arbitrary points to fill.
			centres = append(centres, pts[src.Intn(len(pts))])
			continue
		}
		r := src.Float64() * total
		acc := 0.0
		chosen := len(pts) - 1
		for i, d := range d2 {
			acc += d
			if r <= acc {
				chosen = i
				break
			}
		}
		centres = append(centres, pts[chosen])
	}
	return centres
}

// BenchmarkPlanKMeansBrute times the brute oracle on the inputs of the
// root package's BenchmarkPlanKMeans (xrand seed 7, uniform
// 800 m × 800 m, k = n/20), so the two ladders compare directly. The
// n=10k rung is skipped under -short.
func BenchmarkPlanKMeansBrute(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000} {
		src := xrand.New(7)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
		}
		k := n / 20
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n >= 10_000 && testing.Short() {
				b.Skipf("n=%d skipped under -short", n)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				KMeansBrute(pts, k, xrand.New(11), 20)
			}
		})
	}
}

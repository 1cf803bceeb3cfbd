package tour

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tctp/internal/geom"
	"tctp/internal/hull"
	"tctp/internal/xrand"
)

// convexHullInsertionBrute is the original quadratic-scan
// implementation of ConvexHullInsertion: the reference the pruned path
// must reproduce bit for bit, and the baseline of
// BenchmarkPlanConvexHullInsertionBrute.
func convexHullInsertionBrute(pts []geom.Point) Tour {
	n := len(pts)
	switch n {
	case 0:
		return Tour{}
	case 1:
		return Tour{0}
	case 2:
		return Tour{0, 1}
	}

	hullPts := hull.Convex(pts)
	used := make([]bool, n)
	t := make(Tour, 0, n)
	for _, hp := range hullPts {
		// Map hull vertices back to indices; duplicates in pts map to
		// the first unused match so every index is inserted once.
		for i, p := range pts {
			if !used[i] && p == hp {
				t = append(t, i)
				used[i] = true
				break
			}
		}
	}
	if len(t) == 0 {
		// All points coincide or are collinear enough for the hull to
		// be degenerate; fall back to index order.
		return indexOrder(n)
	}

	var remaining []int
	for i := 0; i < n; i++ {
		if !used[i] {
			remaining = append(remaining, i)
		}
	}

	// Cheapest insertion: repeatedly pick the (point, edge) pair with
	// the globally smallest detour. O(k²·|t|) overall.
	for len(remaining) > 0 {
		bestPoint, bestPos := -1, -1
		bestCost := math.Inf(1)
		for ri, pi := range remaining {
			p := pts[pi]
			for j := range t {
				a := pts[t[j]]
				b := pts[t[(j+1)%len(t)]]
				if c := geom.DetourCost(a, b, p); c < bestCost {
					bestCost = c
					bestPoint = ri
					bestPos = j + 1
				}
			}
		}
		pi := remaining[bestPoint]
		remaining = append(remaining[:bestPoint], remaining[bestPoint+1:]...)
		t = append(t, 0)
		copy(t[bestPos+1:], t[bestPos:])
		t[bestPos] = pi
	}
	return EnsureCCW(pts, t)
}

// uniformSet draws n points uniformly over the paper's 800 m × 800 m
// field from math/rand seed seed.
func uniformSet(seed int64, n int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rnd.Float64()*800, rnd.Float64()*800)
	}
	return pts
}

// latticeSet draws n points from a side×side integer lattice: exact
// detour ties and duplicate targets everywhere.
func latticeSet(rnd *rand.Rand, n, side int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(rnd.Intn(side)), float64(rnd.Intn(side)))
	}
	return pts
}

// mixedScaleSet mixes coordinate magnitudes 1e-6, 1 and 1e6 in one
// set, where grid-cell arithmetic rounds hardest.
func mixedScaleSet(rnd *rand.Rand, n int) []geom.Point {
	scales := []float64{1e-6, 1, 1e6}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rnd.Float64()*scales[rnd.Intn(3)], rnd.Float64()*scales[rnd.Intn(3)])
	}
	return pts
}

// offsetSet places n points with a small spread 1e7 away from the
// origin, so every coordinate difference cancels most of its digits.
func offsetSet(rnd *rand.Rand, n int, spread float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(1e7+rnd.Float64()*spread, 1e7+rnd.Float64()*spread)
	}
	return pts
}

func checkMatchesBrute(t *testing.T, name string, pts []geom.Point) {
	t.Helper()
	got := ConvexHullInsertion(pts)
	want := convexHullInsertionBrute(pts)
	if !sameTour(got, want) {
		t.Errorf("%s: accelerated tour differs from brute\n got %v\nwant %v", name, got, want)
	}
}

// TestConvexHullInsertionMatchesBrute pins the pruned cheapest-
// insertion path to the quadratic rescan bit for bit: the shared
// stress families, a hundred uniform seeds at each of n = 48, 100 and
// 300 (the index threshold, the paper's scale and beyond), integer
// lattices, mixed-scale sets and large-offset sets. Uniform seed 72 at
// n=100 and seed 46 at n=300 are inputs on which the hull-skeleton
// lookup once dropped a hull vertex.
func TestConvexHullInsertionMatchesBrute(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	t.Run("stress", func(t *testing.T) {
		t.Parallel()
		rnd := rand.New(rand.NewSource(12))
		for name, pts := range equivalencePointSets(rnd) {
			checkMatchesBrute(t, name, pts)
		}
	})
	for _, n := range []int{indexThreshold, 100, 300} {
		// Four chunks per size so the n=300 brute runs spread over
		// the available cores.
		for chunk := 0; chunk < 4; chunk++ {
			n, lo, hi := n, chunk*seeds/4, (chunk+1)*seeds/4
			t.Run(fmt.Sprintf("uniform/n=%d/seeds=%d-%d", n, lo, hi-1), func(t *testing.T) {
				t.Parallel()
				for seed := lo; seed < hi; seed++ {
					checkMatchesBrute(t, fmt.Sprintf("seed %d", seed), uniformSet(int64(seed), n))
				}
			})
		}
	}
	t.Run("scales", func(t *testing.T) {
		t.Parallel()
		rnd := rand.New(rand.NewSource(15))
		for s := 0; s < 20; s++ {
			n := []int{indexThreshold, 100, 200}[s%3]
			checkMatchesBrute(t, fmt.Sprintf("lattice %d", s), latticeSet(rnd, n, 3+s))
			checkMatchesBrute(t, fmt.Sprintf("mixed-scale %d", s), mixedScaleSet(rnd, n))
			checkMatchesBrute(t, fmt.Sprintf("large-offset %d", s), offsetSet(rnd, n, []float64{1e-3, 1, 100}[s%3]))
		}
	})
}

// fuzzMaxPoints caps a fuzz input's size so the cubic brute stays fast.
const fuzzMaxPoints = 64

// encodePoints is fuzzPoints' inverse, for seeding the corpus.
func encodePoints(pts []geom.Point) []byte {
	buf := make([]byte, 0, 16*len(pts))
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
	}
	return buf
}

// fuzzPoints decodes up to fuzzMaxPoints points of 16 bytes each (X
// then Y, little-endian float64 bits). ok is false for coordinates
// outside the domain ConvexHullInsertion's margin argument covers:
// non-finite values and nonzero magnitudes outside [1e-100, 1e100],
// where squared differences could leave the normal float64 range.
func fuzzPoints(data []byte) (pts []geom.Point, ok bool) {
	for len(data) >= 16 && len(pts) < fuzzMaxPoints {
		p := geom.Pt(math.Float64frombits(binary.LittleEndian.Uint64(data)),
			math.Float64frombits(binary.LittleEndian.Uint64(data[8:])))
		for _, v := range []float64{p.X, p.Y} {
			if a := math.Abs(v); a != 0 && !(a >= 1e-100 && a <= 1e100) {
				return nil, false
			}
		}
		pts = append(pts, p)
		data = data[16:]
	}
	return pts, true
}

// FuzzConvexHullInsertion compares the pruned construction with the
// brute rescan on arbitrary point sets of up to 64 points — above the
// index threshold, so the hull-skeleton lookup goes through the grid.
// The corpus is seeded with uniform sets that once mismatched (seed
// 2846 at n=48, 426 at n=50, 2503 at n=61) and one set from each of
// the lattice, mixed-scale and large-offset families.
func FuzzConvexHullInsertion(f *testing.F) {
	for _, c := range []struct {
		seed int64
		n    int
	}{{2846, 48}, {426, 50}, {2503, 61}} {
		f.Add(encodePoints(uniformSet(c.seed, c.n)))
	}
	rnd := rand.New(rand.NewSource(16))
	f.Add(encodePoints(latticeSet(rnd, 56, 5)))
	f.Add(encodePoints(mixedScaleSet(rnd, 60)))
	f.Add(encodePoints(offsetSet(rnd, 52, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, ok := fuzzPoints(data)
		if !ok {
			t.Skip("coordinates outside the supported range")
		}
		got := ConvexHullInsertion(pts)
		if err := Validate(got, len(pts)); err != nil {
			t.Fatal(err)
		}
		if want := convexHullInsertionBrute(pts); !sameTour(got, want) {
			t.Fatalf("accelerated tour differs from brute on %v\n got %v\nwant %v", pts, got, want)
		}
	})
}

// BenchmarkPlanConvexHullInsertionBrute times the quadratic rescan on
// the inputs of the root package's BenchmarkPlanConvexHullInsertion
// (xrand seed 7, uniform 800 m × 800 m), so the two ladders compare
// directly. It stops at 1k: the rescan is Θ(n³)-ish DetourCost
// evaluations and a single 10k iteration takes minutes.
func BenchmarkPlanConvexHullInsertionBrute(b *testing.B) {
	for _, n := range []int{100, 1_000} {
		pts := randomPoints(xrand.New(7), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				convexHullInsertionBrute(pts)
			}
		})
	}
}

package core

import (
	"math"
	"sync/atomic"

	"rfprism/internal/geom"
	"rfprism/internal/rf"
)

// SolveStats aggregates the solver fast-path counters. All fields are
// atomic so one instance can be shared by concurrent solves (the batch
// workers do); a nil Options.Stats disables counting entirely.
type SolveStats struct {
	// WarmAttempts counts solves that entered the warm fast path.
	WarmAttempts atomic.Int64
	// WarmFallbacks counts warm attempts that failed a guard and
	// re-ran the full cold path.
	WarmFallbacks atomic.Int64
}

func (o Options) countWarmAttempt() {
	if o.Stats != nil {
		o.Stats.WarmAttempts.Add(1)
	}
}

func (o Options) countWarmFallback() {
	if o.Stats != nil {
		o.Stats.WarmFallbacks.Add(1)
	}
}

// warmOffsets covers the warm wrap basin and its immediate neighbors:
// ±8 cm (≈λ/4) around the previous position — 9 starts in 2D instead
// of the cold path's 49, and no coarse grid.
var warmOffsets = []float64{-0.08, 0, 0.08}

const (
	// warmSlopeFactor/warmSlopeSlack bound how much worse the warm
	// position's slope cost may be than the freshly refined slope
	// minimum before the entry guard declares the tag moved. The slack
	// keeps the test meaningful when the refined cost is ~0.
	warmSlopeFactor = 10.0
	warmSlopeSlack  = 1e-12
)

// WarmCostFloor is the joint-cost scale of a well-fit window: the
// objective has 2N residual terms of unit expected size, so a healthy
// solution costs ≈2N. Guard thresholds floor the previous window's
// cost at this scale so a lucky near-zero-cost window doesn't make
// its successor's guard impossibly tight.
func WarmCostFloor(n int) float64 { return 2 * float64(n) }

func warmCostCeiling(factor, warmCost float64, n int) float64 {
	return factor * math.Max(warmCost, WarmCostFloor(n))
}

// warmConsistent2D/3D is the entry guard: refine the slope-only fix
// starting from the warm position; if the refined fix walks away from
// the warm position AND the warm position's slope cost is far above
// the refined minimum, the tag moved basins and the warm seed is
// stale. The refined fix wandering alone is not disqualifying — at the
// far corners of the region the slope surface is shallow and its
// minimum sits 20+ cm from the true (and warm) position even for a
// stationary tag.
func warmConsistent(sc *solveScratch, warmPos, refined geom.Vec3, radius float64) bool {
	if refined.Dist(warmPos) <= radius {
		return true
	}
	cWarm, _ := sc.slopeCost(warmPos)
	cRef, _ := sc.slopeCost(refined)
	return cWarm <= warmSlopeFactor*cRef+warmSlopeSlack
}

// solve2DWarm is the warm fast path: skip the coarse grid, trust the
// previous window's estimate to be in (or adjacent to) the right wrap
// basin, and run a 9-start basin-local joint multistart seeded with
// the warm orientation. Returns ok = false when either guard fails;
// the caller then runs the cold path.
//
// The warm LM runs are confined to warmBox: LM follows the wrap-free
// slope term across the whole region, so an unconfined stale seed
// would walk to a teleported tag's new fix instead of tripping the
// cost guard.
func solve2DWarm(sc *solveScratch, bounds Bounds, opts Options) (Estimate, bool) {
	warm := *opts.WarmStart
	posW := refinePos2D(sc, warm.Pos, bounds, opts.GridStep)
	if !warmConsistent(sc, warm.Pos, posW, opts.WarmRadius) {
		return Estimate{}, false
	}
	box := warmBox(warm.Pos, warmOffsets[len(warmOffsets)-1]+opts.WarmRadius, bounds)
	starts := make([][4]float64, 0, len(warmOffsets)*len(warmOffsets))
	for _, dx := range warmOffsets {
		for _, dy := range warmOffsets {
			x0 := clamp(warm.Pos.X+dx, bounds.XMin, bounds.XMax)
			y0 := clamp(warm.Pos.Y+dy, bounds.YMin, bounds.YMax)
			sc.setPsi(geom.Vec3{X: x0, Y: y0})
			_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization2D(warm.Alpha))
			starts = append(starts, [4]float64{x0, y0, warm.Alpha, bt0})
		}
	}
	cands := make([]Estimate, len(starts))
	parallelFor(len(starts), workerCount(opts.Parallelism, len(starts)), func(i int) {
		cands[i] = lmJoint2D(sc, starts[i], box)
	})
	best := finish2D(sc, reduceMinCost(cands), box, opts)
	if best.Cost > warmCostCeiling(opts.WarmGuardFactor, warm.Cost, len(sc.obs)) {
		return Estimate{}, false
	}
	return best, true
}

// warmBox is the square of half-width r around pos (clamped into
// bounds, so the box is never empty), intersected with bounds.
func warmBox(pos geom.Vec3, r float64, bounds Bounds) Bounds {
	x := clamp(pos.X, bounds.XMin, bounds.XMax)
	y := clamp(pos.Y, bounds.YMin, bounds.YMax)
	return Bounds{
		XMin: math.Max(x-r, bounds.XMin), XMax: math.Min(x+r, bounds.XMax),
		YMin: math.Max(y-r, bounds.YMin), YMax: math.Min(y+r, bounds.YMax),
	}
}

// solve3DWarm mirrors solve2DWarm with a 7-start axis star (center
// ± one wrap basin per axis) instead of the cold path's 486 starts.
func solve3DWarm(sc *solveScratch, bounds Bounds, opts Options) (Estimate, bool) {
	warm := *opts.WarmStart
	posW := refinePos3D(sc, warm.Pos, bounds, opts.GridStep*2)
	if !warmConsistent(sc, warm.Pos, posW, opts.WarmRadius) {
		return Estimate{}, false
	}
	const basin = 0.11
	offs := [][3]float64{
		{0, 0, 0},
		{-basin, 0, 0}, {basin, 0, 0},
		{0, -basin, 0}, {0, basin, 0},
		{0, 0, -basin}, {0, 0, basin},
	}
	starts := make([][]float64, 0, len(offs))
	for _, d := range offs {
		x0 := clamp(warm.Pos.X+d[0], bounds.XMin, bounds.XMax)
		y0 := clamp(warm.Pos.Y+d[1], bounds.YMin, bounds.YMax)
		z0 := clamp(warm.Pos.Z+d[2], bounds.ZMin, bounds.ZMax)
		p0 := geom.Vec3{X: x0, Y: y0, Z: z0}
		_, kt0 := sc.slopeCost(p0)
		sc.setPsi(p0)
		_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization3D(warm.Azimuth, warm.Elevation))
		starts = append(starts, []float64{x0, y0, z0, warm.Azimuth, warm.Elevation, kt0, bt0})
	}
	cands := make([]Estimate, len(starts))
	parallelFor(len(starts), workerCount(opts.Parallelism, len(starts)), func(i int) {
		cands[i] = runJoint3D(sc, starts[i], bounds, jointIters3D, warm.Cost)
	})
	best := refinePolar3D(sc, reduceMinCost(cands))
	if best.Cost > warmCostCeiling(opts.WarmGuardFactor, warm.Cost, len(sc.obs)) {
		return Estimate{}, false
	}
	return best, true
}

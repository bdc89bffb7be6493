package core

import (
	"math"
	"testing"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// solve2DEveryAlphaStart is the cold 2D joint stage with the start
// layout it had before the orientation scan seeded α: six fixed α
// starts (0°, 30°, …, 150°) at each of the 49 position offsets, 294
// LM runs, followed by the same reduction and finish as Solve2D.
func solve2DEveryAlphaStart(obs []Observation, bounds Bounds) Estimate {
	opts := Options{Parallelism: 1}
	opts.defaults()
	sc := newSolveScratch(obs, &opts)
	posA := refinePos2D(sc, gridSearch2D(sc, bounds, opts.GridStep, 1), bounds, opts.GridStep)
	var cands []Estimate
	for _, dx := range jointOffsets {
		for _, dy := range jointOffsets {
			x0 := clamp(posA.X+dx, bounds.XMin, bounds.XMax)
			y0 := clamp(posA.Y+dy, bounds.YMin, bounds.YMax)
			sc.setPsi(geom.Vec3{X: x0, Y: y0})
			for a := 0; a < 6; a++ {
				alpha0 := float64(a) * math.Pi / 6
				_, bt0 := orientCost(sc.obs, sc.psi, rf.TagPolarization2D(alpha0))
				cands = append(cands, lmJoint2D(sc, [4]float64{x0, y0, alpha0, bt0}, bounds))
			}
		}
	}
	return finish2D(sc, reduceMinCost(cands), bounds, opts)
}

// TestSolve2DSameBasinAsEveryAlphaStart: one α-seeded start per
// position offset must find the wrap basin the 294-start layout finds.
// The sweep covers the paper's six rotations over its 5×5 grid plus
// the region's corners and edge midpoints, cycling materials. The
// thresholds were fixed before the start layout changed: at least 99%
// of the windows within 1 mm of the 294-start estimate, and no window
// more than 5% above its cost.
func TestSolve2DSameBasinAsEveryAlphaStart(t *testing.T) {
	const (
		maxShift    = 1e-3 // m
		minSameFrac = 0.99
		maxCostRise = 1.05
	)
	rig := newGoldenRig(t, 21, sim.PaperAntennas2D)
	region := sim.PaperRegion()
	bounds := Bounds{XMin: region.XMin, XMax: region.XMax, YMin: region.YMin, YMax: region.YMax}
	xm, ym := (region.XMin+region.XMax)/2, (region.YMin+region.YMax)/2
	points := append(region.GridPoints(5, 5),
		geom.Vec3{X: region.XMin, Y: region.YMin}, geom.Vec3{X: region.XMax, Y: region.YMin},
		geom.Vec3{X: region.XMin, Y: region.YMax}, geom.Vec3{X: region.XMax, Y: region.YMax},
		geom.Vec3{X: xm, Y: region.YMin}, geom.Vec3{X: xm, Y: region.YMax},
		geom.Vec3{X: region.XMin, Y: ym}, geom.Vec3{X: region.XMax, Y: ym})
	materials := []rf.Material{goldenMaterial(t, "none"), goldenMaterial(t, "water"),
		goldenMaterial(t, "wood"), goldenMaterial(t, "metal")}

	var windows, shifted int
	for _, deg := range []float64{0, 30, 60, 90, 120, 150} {
		for _, p := range points {
			m := materials[windows%len(materials)]
			obs := rig.observe(t, rig.place(p, rf.TagPolarization2D(mathx.Rad(deg)), m))
			windows++
			got, err := Solve2D(obs, bounds, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := solve2DEveryAlphaStart(obs, bounds)
			if d := got.Pos.Dist(want.Pos); d > maxShift {
				shifted++
				t.Logf("%v° at %+v on %s: %.2f cm from the 294-start estimate, cost %.4g vs %.4g",
					deg, p, m.Name, d*100, got.Cost, want.Cost)
			}
			if got.Cost > maxCostRise*want.Cost {
				t.Errorf("%v° at %+v on %s: cost %.6g exceeds the 294-start cost %.6g by more than %.0f%%",
					deg, p, m.Name, got.Cost, want.Cost, (maxCostRise-1)*100)
			}
		}
	}
	if same := 1 - float64(shifted)/float64(windows); same < minSameFrac {
		t.Errorf("%d of %d windows left the 294-start basin (same-basin fraction %.3f < %.2f)",
			shifted, windows, same, minSameFrac)
	}
}

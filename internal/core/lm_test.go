package core

import (
	"math"
	"math/rand"
	"testing"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// lmResiduals evaluates every antenna's (rk, rb) at q the way lmEval
// does, for finite differencing.
func lmResiduals(sc *solveScratch, q [4]float64, out []lmResidRow) {
	pos := geom.Vec3{X: q[0], Y: q[1]}
	sa, ca := math.Sincos(q[2])
	w, dw := geom.Vec3{X: ca, Y: sa}, geom.Vec3{X: -sa, Y: ca}
	kt, ktx, kty := sc.profileKt(pos)
	for i := range sc.obs {
		sc.lmRow(&out[i], i, pos, w, dw, q[3], kt, ktx, kty)
	}
}

// TestLMJacobianMatchesCentralDifferences: every analytic Jacobian
// entry of every slope and intercept residual agrees with a central
// difference at seeded points across the region, for the kernel's
// profiled k_t included, and so do the second derivatives the Hessian
// adds (∇²d_i, θ_i″). Points within 1e-3 rad of a wrap are skipped:
// there the wrapped residual jumps by 2π inside the difference stencil.
func TestLMJacobianMatchesCentralDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	steps := [4]float64{1e-6, 1e-6, 1e-6, 1e-6}
	checked := 0
	for trial := 0; trial < 40; trial++ {
		truth := geom.Vec3{X: 0.1 + rng.Float64()*1.8, Y: 0.6 + rng.Float64()*1.8}
		obs := synthObs(testAnts, testAims, truth, rng.Float64()*math.Pi, rng.Float64()*2e-8, rng.Float64()*2*math.Pi)
		for i := range obs {
			obs[i].Line.K += rng.NormFloat64() * 2e-9
			obs[i].Line.B0 += rng.NormFloat64() * 0.1
			obs[i].Line.SigmaK = 1e-9 + rng.Float64()*2e-9
			obs[i].Weight = 0.5 + rng.Float64()
		}
		sc := newCostScratch(obs, 0.04, ktPrior{mean: rf.KtPhysicalMean, wp: 1 / (rf.KtPhysicalSigma * rf.KtPhysicalSigma)})
		n := len(obs)
		rows := make([]lmResidRow, n)
		plus := make([]lmResidRow, n)
		minus := make([]lmResidRow, n)
		for pt := 0; pt < 8; pt++ {
			q := [4]float64{0.1 + rng.Float64()*1.8, 0.6 + rng.Float64()*1.8, rng.Float64() * math.Pi, rng.Float64() * 2 * math.Pi}
			lmResiduals(sc, q, rows)
			nearWrap := false
			for _, r := range rows {
				if math.Pi-math.Abs(r.rb) < 1e-3 {
					nearWrap = true
				}
			}
			if nearWrap {
				continue
			}
			for k := 0; k < 4; k++ {
				qp, qm := q, q
				qp[k] += steps[k]
				qm[k] -= steps[k]
				lmResiduals(sc, qp, plus)
				lmResiduals(sc, qm, minus)
				for i := range rows {
					numB := (plus[i].rb - minus[i].rb) / (2 * steps[k])
					if math.Abs(numB-rows[i].jb[k]) > 1e-5*(1+math.Abs(numB)) {
						t.Fatalf("∂rb[%d]/∂q[%d] at %v: analytic %v, central %v", i, k, q, rows[i].jb[k], numB)
					}
					numK := (plus[i].rk - minus[i].rk) / (2 * steps[k])
					var anaK float64
					if k < 2 {
						anaK = rows[i].jk[k]
					}
					if math.Abs(numK-anaK) > 1e-5*(slopePerMeter+math.Abs(numK)) {
						t.Fatalf("∂rk[%d]/∂q[%d] at %v: analytic %v, central %v", i, k, q, anaK, numK)
					}
					// The Hessian's second derivatives, differenced from
					// the Jacobian: ∂jb_x/∂(x, y) = −(4π·f_c/c)·∇²d and
					// ∂jb_α/∂α = −θ″.
					var want, num float64
					switch k {
					case 0:
						want, num = -phasePerMeter*rows[i].d2[0], (plus[i].jb[0]-minus[i].jb[0])/(2*steps[k])
					case 1:
						want, num = -phasePerMeter*rows[i].d2[2], (plus[i].jb[1]-minus[i].jb[1])/(2*steps[k])
						if d := (plus[i].jb[0] - minus[i].jb[0]) / (2 * steps[k]); math.Abs(d+phasePerMeter*rows[i].d2[1]) > 1e-4*(1+math.Abs(d)) {
							t.Fatalf("∂²d[%d]/∂x∂y at %v: analytic %v, central %v", i, q, -phasePerMeter*rows[i].d2[1], d)
						}
					case 2:
						want, num = -rows[i].ddTheta, (plus[i].jb[2]-minus[i].jb[2])/(2*steps[k])
					}
					if math.Abs(num-want) > 1e-4*(1+math.Abs(num)) {
						t.Fatalf("second derivative of rb[%d] along q[%d] at %v: analytic %v, central %v", i, k, q, want, num)
					}
				}
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d points checked, want ≥ 200", checked)
	}
}

// TestLMProfiledKtIsStationary: the profiled k_t* minimizes the full
// five-parameter jointCost2D along k_t — ∂cost/∂k_t vanishes there —
// and equals slopeCost's profile bit for bit.
func TestLMProfiledKtIsStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		obs := synthObs(testAnts, testAims, geom.Vec3{X: 0.2 + rng.Float64()*1.6, Y: 0.7 + rng.Float64()*1.6},
			rng.Float64()*math.Pi, rng.Float64()*2e-8, rng.Float64()*2*math.Pi)
		for i := range obs {
			obs[i].Line.K += rng.NormFloat64() * 3e-9
			obs[i].Line.SigmaK = 1e-9 + rng.Float64()*2e-9
		}
		prior := ktPrior{}
		if trial%2 == 0 {
			prior = ktPrior{mean: rf.KtPhysicalMean, wp: 1 / (rf.KtPhysicalSigma * rf.KtPhysicalSigma)}
		}
		sc := newCostScratch(obs, 0.04, prior)
		pos := geom.Vec3{X: rng.Float64() * 2, Y: 0.5 + rng.Float64()*2}
		kt, _, _ := sc.profileKt(pos)
		if _, ref := sc.slopeCost(pos); kt != ref {
			t.Fatalf("profiled k_t %v != slopeCost k_t %v", kt, ref)
		}
		p := []float64{pos.X, pos.Y, rng.Float64() * math.Pi, kt, rng.Float64() * 2 * math.Pi}
		// Central difference of the full objective along k_t at k_t*,
		// against the one-sided slope a 1% k_t offset produces.
		const h = 1e-10 // rad/Hz, ≈1% of the k_t scale
		at := func(dkt float64) float64 {
			q := append([]float64(nil), p...)
			q[3] += dkt
			return sc.jointCost2D(q)
		}
		grad := (at(h) - at(-h)) / (2 * h)
		offset := (at(2*h) - at(0)) / (2 * h)
		if math.Abs(grad) > 1e-6*math.Abs(offset) {
			t.Fatalf("∂cost/∂k_t = %v at the profiled k_t, vs %v one percent away", grad, offset)
		}
	}
}

// TestLMEvalCostIsJointCost: the LM kernel's cost is jointCost2D at
// (x, y, α, k_t*, b_t) bit for bit — Estimate.Cost stays the joint
// objective the rest of the system (warm guard, cache verification,
// confidence) compares against.
func TestLMEvalCostIsJointCost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	obs := synthObs(testAnts, testAims, geom.Vec3{X: 1.1, Y: 1.3}, mathx.Rad(50), 1e-8, 2)
	sc := newCostScratch(obs, 0.04, ktPrior{mean: rf.KtPhysicalMean, wp: 1 / (rf.KtPhysicalSigma * rf.KtPhysicalSigma)})
	for i := 0; i < 100; i++ {
		var pt lmPoint
		pt.q = [4]float64{rng.Float64() * 2, 0.5 + rng.Float64()*2, rng.Float64() * math.Pi, rng.Float64() * 2 * math.Pi}
		sc.lmEval(&pt)
		if ref := sc.jointCost2D([]float64{pt.q[0], pt.q[1], pt.q[2], pt.kt, pt.q[3]}); pt.cost != ref {
			t.Fatalf("lmEval cost %v != jointCost2D %v at %v", pt.cost, ref, pt.q)
		}
	}
}

// TestLMSlidesAlongPinnedFace: when the cost minimum lies outside the
// box, LM must stop at the minimum on the box face — x frozen at the
// bound, the free coordinates (y, α, b_t) stationary — rather than
// stall wherever the clamp first cuts a step, so starts in the same
// basin agree on the face minimum.
func TestLMSlidesAlongPinnedFace(t *testing.T) {
	obs := synthObs(testAnts, testAims, geom.Vec3{X: -0.04, Y: 1.4}, mathx.Rad(35), 1e-8, 2)
	sc := newCostScratch(obs, 0.04, ktPrior{})
	var first Estimate
	for i, q0 := range [][4]float64{{0.03, 1.37, 0.5, 2}, {0.06, 1.42, 0.7, 2.2}, {0.01, 1.44, 0.6, 1.8}} {
		est := lmJoint2D(sc, q0, testBounds)
		if est.Pos.X != testBounds.XMin {
			t.Fatalf("start %v: x = %v, want pinned at %v", q0, est.Pos.X, testBounds.XMin)
		}
		pt := lmPoint{q: [4]float64{est.Pos.X, est.Pos.Y, est.Alpha, est.Bt0}}
		sc.lmEval(&pt)
		if pt.jtr[0] <= 0 {
			t.Fatalf("start %v: ∂cost/∂x = %v, want > 0 (pushing out of the box)", q0, pt.jtr[0])
		}
		for k := 1; k < 4; k++ {
			if math.Abs(pt.jtr[k]) > 1e-6 {
				t.Errorf("start %v: free gradient component %d = %.3g at the result, want stationary", q0, k, pt.jtr[k])
			}
		}
		if i == 0 {
			first = est
		} else if d := math.Abs(est.Pos.Y - first.Pos.Y); d > 1e-8 {
			t.Errorf("start %v: y = %.10f, first start %.10f", q0, est.Pos.Y, first.Pos.Y)
		}
	}
}

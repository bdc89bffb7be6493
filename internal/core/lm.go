package core

import (
	"math"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
)

// The 2D joint stage minimizes jointCost2D over (x, y, α, k_t, b_t)
// with a Levenberg–Marquardt kernel on four unknowns. k_t enters only
// the slope equations and the prior, both linear in it, so for any
// position its optimum is closed-form (variable projection):
//
//	k_t* = (Σ w_k,i·e_i + μ·w_p) / (Σ w_k,i + w_p),  e_i = k_i − 4π·d_i/c,
//
// exactly the profile slopeCost computes. LM then iterates on
// q = (x, y, α, b_t) with the analytic Jacobian of the 2N+1 weighted
// residuals (N slope, N wrapped intercept, one prior):
//
//	∂d_i/∂x = (x − x_i)/d_i,
//	∂θ_i/∂α = 2(a·b′ − b·a′)/(a² + b²), a = U_i·w, b = V_i·w, ′ = ∂/∂α,
//	∂r_b,i/∂b_t = −1,
//	∂k_t*/∂x = −(4π/c)·Σ w_k,i·∂d_i/∂x / (Σ w_k,i + w_p).
//
// The normal matrix is the exact Hessian JᵀJ + Σ r·∇²r, not JᵀJ
// alone: with three antennas the joint system leaves a nearly flat
// α/b_t direction where the residual-curvature terms outweigh JᵀJ
// several times over, and Gauss–Newton steps there overshoot and
// crawl. The extra terms are cheap — ∇²d_i = (I − ĝĝᵀ)/d_i and
// θ_i″ — and the ∇²k_t* terms cancel exactly at the profiled k_t.
// The Marquardt damping scales with diag(JᵀJ), which stays positive
// where the exact Hessian is not.
//
// The wrapped intercept residual is differentiated as if unwrapped; a
// step that crosses a wrap shows up as a cost increase and is rejected
// like any other bad step.

// lmMaxIter caps the LM iterations (accepted plus rejected steps) of
// one joint refinement; a multistart start typically stops after
// 20–30, a start already at a minimum after a few.
const lmMaxIter = 60

// lmStepTol is the convergence tolerance: LM stops once a proposed
// step moves no coordinate by more than this (meters for x, y;
// radians for α, b_t).
const lmStepTol = 1e-10

// lmLambdaMax bounds the Marquardt damping; past it no downhill step
// exists at floating-point resolution and the refinement stops.
const lmLambdaMax = 1e12

// Unit-distance derivatives of the slope and band-center propagation
// terms: ∂(4πd/c)/∂d and ∂(4πd·f_c/c)/∂d.
var (
	slopePerMeter = rf.PropagationSlope(1)
	phasePerMeter = rf.PropagationPhase(1, rf.CenterFrequencyHz)
)

// lmPoint is the joint objective evaluated at one parameter vector:
// the profiled k_t, the cost, and over q = (x, y, α, b_t) the gradient
// Jᵀr, the half Hessian JᵀJ + Σ r·∇²r (upper triangle) and the
// damping scale diag(JᵀJ).
type lmPoint struct {
	q    [4]float64
	kt   float64
	cost float64
	hess [4][4]float64
	jtr  [4]float64
	damp [4]float64
}

// lmEval fills pt's cost, profiled k_t, gradient and Hessian at pt.q.
// The cost is the jointCost2D expression, term for term, at
// (x, y, α, k_t*, b_t). Read-only on sc, so parallel starts may share
// it; allocation-free.
func (sc *solveScratch) lmEval(pt *lmPoint) {
	pos := geom.Vec3{X: pt.q[0], Y: pt.q[1]}
	sa, ca := math.Sincos(pt.q[2])
	w := geom.Vec3{X: ca, Y: sa} // rf.TagPolarization2D(α)
	dw := geom.Vec3{X: -sa, Y: ca}
	kt, ktx, kty := sc.profileKt(pos)

	h, g := &pt.hess, &pt.jtr
	*h, *g = [4][4]float64{}, [4]float64{}
	var curv [4]float64 // Σ r·∇²r on (xx, xy, yy, αα)
	var cost float64
	var row lmResidRow
	for i := range sc.obs {
		sc.lmRow(&row, i, pos, w, dw, pt.q[3], kt, ktx, kty)
		cost += sc.wk[i]*row.rk*row.rk + sc.wb[i]*row.rb*row.rb/sc.sigB2
		// Slope residual: position only.
		wk := sc.wk[i]
		h[0][0] += wk * row.jk[0] * row.jk[0]
		h[0][1] += wk * row.jk[0] * row.jk[1]
		h[1][1] += wk * row.jk[1] * row.jk[1]
		g[0] += wk * row.jk[0] * row.rk
		g[1] += wk * row.jk[1] * row.rk
		// Wrapped intercept residual: all four unknowns.
		vb := sc.wb[i] / sc.sigB2
		for r := 0; r < 4; r++ {
			for c := r; c < 4; c++ {
				h[r][c] += vb * row.jb[r] * row.jb[c]
			}
			g[r] += vb * row.jb[r] * row.rb
		}
		// Residual curvature: both residuals bend with d_i (slopes
		// −4π/c, −4π·f_c/c), the intercept also with θ_i(α).
		c := -(wk*row.rk*slopePerMeter + vb*row.rb*phasePerMeter)
		curv[0] += c * row.d2[0]
		curv[1] += c * row.d2[1]
		curv[2] += c * row.d2[2]
		curv[3] -= vb * row.rb * row.ddTheta
	}
	dp := kt - sc.prior.mean
	cost += sc.prior.wp * dp * dp
	h[0][0] += sc.prior.wp * ktx * ktx
	h[0][1] += sc.prior.wp * ktx * kty
	h[1][1] += sc.prior.wp * kty * kty
	g[0] += sc.prior.wp * ktx * dp
	g[1] += sc.prior.wp * kty * dp

	// diag(JᵀJ), floored so a coordinate without curvature still gets
	// damped.
	for k := range pt.damp {
		pt.damp[k] = math.Max(h[k][k], 1e-300)
	}
	h[0][0] += curv[0]
	h[0][1] += curv[1]
	h[1][1] += curv[2]
	h[2][2] += curv[3]
	pt.kt, pt.cost = kt, cost
}

// profileKt returns the profiled k_t* at pos — bit-identical to the k_t
// slopeCost returns — and its position gradient ∂k_t*/∂(x, y).
func (sc *solveScratch) profileKt(pos geom.Vec3) (kt, ktx, kty float64) {
	var swe, swgx, swgy float64
	for i := range sc.obs {
		o := &sc.obs[i]
		d := o.Pos.Dist(pos)
		swe += sc.wk[i] * (o.Line.K - rf.PropagationSlope(d))
		gx, gy := distGrad(o.Pos, pos, d)
		swgx += sc.wk[i] * gx
		swgy += sc.wk[i] * gy
	}
	den := sc.sw + sc.prior.wp
	kt = (swe + sc.prior.mean*sc.prior.wp) / den
	return kt, -slopePerMeter * swgx / den, -slopePerMeter * swgy / den
}

// lmResidRow is antenna i's unweighted slope residual rk (Jacobian jk
// over x, y) and wrapped intercept residual rb (Jacobian jb over
// x, y, α, b_t), with the second derivatives the Hessian needs: ∇²d_i
// as (xx, xy, yy) and θ_i″.
type lmResidRow struct {
	rk, rb  float64
	jk      [2]float64
	jb      [4]float64
	d2      [3]float64
	ddTheta float64
}

// lmRow fills row with antenna i's residuals and derivatives at
// position pos, polarization w (dw = ∂w/∂α), intercept bt and the
// profiled k_t with its gradient. The residuals are the jointCost2D
// terms verbatim.
func (sc *solveScratch) lmRow(row *lmResidRow, i int, pos, w, dw geom.Vec3, bt, kt, ktx, kty float64) {
	o := &sc.obs[i]
	d := o.Pos.Dist(pos)
	gx, gy := distGrad(o.Pos, pos, d)
	pred := rf.PropagationPhase(d, rf.CenterFrequencyHz) + rf.OrientationPhase(o.Frame, w) + bt
	dTheta, ddTheta := orientPhaseDerivs(&o.Frame, w, dw)
	row.rk = o.Line.K - rf.PropagationSlope(d) - kt
	row.rb = mathx.WrapPi(o.Line.B0 - pred)
	row.jk = [2]float64{-slopePerMeter*gx - ktx, -slopePerMeter*gy - kty}
	row.jb = [4]float64{-phasePerMeter * gx, -phasePerMeter * gy, -dTheta, -1}
	row.ddTheta = ddTheta
	row.d2 = [3]float64{}
	if d > 0 {
		row.d2 = [3]float64{(1 - gx*gx) / d, -gx * gy / d, (1 - gy*gy) / d}
	}
}

// distGrad is ∂d/∂(x, y) for d = |p − ant|, zero at the antenna itself.
func distGrad(ant, p geom.Vec3, d float64) (gx, gy float64) {
	if d == 0 {
		return 0, 0
	}
	return (p.X - ant.X) / d, (p.Y - ant.Y) / d
}

// orientPhaseDerivs returns θ′ and θ″ of rf.OrientationPhase along
// α for w(α) with derivative dw (and w″ = −w). θ = 2·φ modulo 2π with
// φ = atan2(b, a), a = U·w, b = V·w, so with h = a² + b²:
//
//	φ′ = (a·b′ − b·a′)/h,  φ″ = −2φ′·(a·a′ + b·b′)/h.
//
// Both are zero for a tag orthogonal to the frame, where θ is pinned
// to 0 by convention.
func orientPhaseDerivs(fr *geom.Frame, w, dw geom.Vec3) (d1, d2 float64) {
	a, b := fr.U.Dot(w), fr.V.Dot(w)
	h := a*a + b*b
	if h == 0 {
		return 0, 0
	}
	da, db := fr.U.Dot(dw), fr.V.Dot(dw)
	phi1 := (a*db - b*da) / h
	return 2 * phi1, -4 * phi1 * (a*da + b*db) / h
}

// lmJoint2D refines the joint 2D objective from q0 = (x, y, α, b_t)
// with Levenberg–Marquardt, keeping the position inside box by
// freezing the coordinates pinned on its faces (outwardAxes) and
// clamping every trial point, and packages the result. Deterministic
// and allocation-free, so the multistart can fan it out across
// workers.
func lmJoint2D(sc *solveScratch, q0 [4]float64, box Bounds) Estimate {
	var pts [2]lmPoint
	cur, trial := &pts[0], &pts[1]
	cur.q = q0
	cur.q[0] = clamp(cur.q[0], box.XMin, box.XMax)
	cur.q[1] = clamp(cur.q[1], box.YMin, box.YMax)
	sc.lmEval(cur)
	lambda := 1e-3
	for iter := 0; iter < lmMaxIter && lambda <= lmLambdaMax; iter++ {
		// A position coordinate on a face of box is frozen when the
		// descent direction or the step leaves the box there.
		pinned := outwardAxes(&cur.q, -cur.jtr[0], -cur.jtr[1], box)
		step, ok := lmStep(cur, lambda, pinned)
		if more := outwardAxes(&cur.q, step[0], step[1], box) &^ pinned; ok && more != 0 {
			pinned |= more
			step, ok = lmStep(cur, lambda, pinned)
		}
		if !ok {
			lambda *= 10
			continue
		}
		trial.q = cur.q
		for k := range step {
			trial.q[k] += step[k]
		}
		trial.q[0] = clamp(trial.q[0], box.XMin, box.XMax)
		trial.q[1] = clamp(trial.q[1], box.YMin, box.YMax)
		if stepConverged(&cur.q, &trial.q) {
			break
		}
		sc.lmEval(trial)
		if trial.cost < cur.cost {
			cur, trial = trial, cur
			lambda = math.Max(lambda/10, 1e-12)
		} else {
			lambda *= 10
		}
	}
	return Estimate{
		Pos:   geom.Vec3{X: cur.q[0], Y: cur.q[1]},
		Alpha: normalizeAlpha(cur.q[2]),
		Kt:    cur.kt,
		Bt0:   mathx.Wrap2Pi(cur.q[3]),
		Cost:  cur.cost,
	}
}

// outwardAxes returns the bit set of position coordinates (bit 0 x,
// bit 1 y) of q that sit on a face of box with the direction (dx, dy)
// pointing out of it. LM freezes those coordinates and solves for the
// rest, so a start whose minimum lies beyond the box slides along the
// face to the face's minimum. Clamping alone would cut the step to its
// in-box part while keeping the other coordinates' share of a step
// that assumed the pinned one moves, and the exact Hessian's curvature
// across the face can make the full system indefinite there: LM would
// stall short of the minimum.
func outwardAxes(q *[4]float64, dx, dy float64, box Bounds) (out uint8) {
	if (q[0] <= box.XMin && dx < 0) || (q[0] >= box.XMax && dx > 0) {
		out |= 1
	}
	if (q[1] <= box.YMin && dy < 0) || (q[1] >= box.YMax && dy > 0) {
		out |= 2
	}
	return out
}

// stepConverged reports whether the (clamped) trial moves every
// coordinate by at most lmStepTol.
func stepConverged(from, to *[4]float64) bool {
	for k := range from {
		if math.Abs(to[k]-from[k]) > lmStepTol {
			return false
		}
	}
	return true
}

// lmStep solves the Marquardt-damped Newton system
// (H + λ·diag(JᵀJ))·δ = −Jᵀr by a 4×4 Cholesky factorization. The
// coordinates in the frozen bit set get a zero step and drop out of
// the system. ok is false when the damped matrix is not positive
// definite; the caller then raises λ.
func lmStep(pt *lmPoint, lambda float64, frozen uint8) (step [4]float64, ok bool) {
	hess, jtr := &pt.hess, &pt.jtr
	if frozen != 0 {
		fh, fg := pt.hess, pt.jtr
		for k := 0; k < 4; k++ {
			if frozen&(1<<k) == 0 {
				continue
			}
			for j := 0; j < 4; j++ {
				fh[k][j], fh[j][k] = 0, 0
			}
			fh[k][k], fg[k] = 1, 0
		}
		hess, jtr = &fh, &fg
	}
	// l is the Cholesky factor below the diagonal; inv holds the
	// reciprocals of its diagonal, so the factorization and both
	// triangular solves divide only four times.
	var l [4][4]float64
	var inv [4]float64
	for r := 0; r < 4; r++ {
		for c := 0; c < r; c++ {
			s := hess[c][r] // upper triangle holds (c ≤ r)
			for k := 0; k < c; k++ {
				s -= l[r][k] * l[c][k]
			}
			l[r][c] = s * inv[c]
		}
		s := hess[r][r] + lambda*pt.damp[r]
		for k := 0; k < r; k++ {
			s -= l[r][k] * l[r][k]
		}
		if !(s > 0) {
			return step, false
		}
		inv[r] = 1 / math.Sqrt(s)
	}
	var y [4]float64
	for r := 0; r < 4; r++ {
		s := -jtr[r]
		for k := 0; k < r; k++ {
			s -= l[r][k] * y[k]
		}
		y[r] = s * inv[r]
	}
	for r := 3; r >= 0; r-- {
		s := y[r]
		for k := r + 1; k < 4; k++ {
			s -= l[k][r] * step[k]
		}
		step[r] = s * inv[r]
	}
	return step, true
}

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"rfprism"
	"rfprism/internal/core"
	"rfprism/internal/exp"
	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// paper-grid: a closed-loop batch of the paper's Fig. 8/9 localization
// campaign (25 grid points × 6 rotations, plus every evaluation
// material × 25 points at 0°) on the calibrated 3-antenna testbed,
// processed block by block through System.ProcessWindows at
// parallelism = GOMAXPROCS. Each block is one grid row (five
// consecutive grid points) of one rotation or material sweep. There is
// no stream here, so paper-grid's fresh_p50_ms is per block: one
// sample per ProcessWindows call, the time until the caller sees the
// block's results.

// setupRepeats is how many times each run builds its system; setup_s
// is the median.
const setupRepeats = 9

// gridBlock is the number of windows per ProcessWindows call: one row
// of the 5×5 grid.
const gridBlock = 5

// testbedSeed fixes the deployment — antenna hardware offsets, the
// surveyed geometry and the calibration derived from them — the way
// the paper's evaluation runs on one testbed. The run's --seed varies
// the traffic on it: poses, materials, tag diversity and every read's
// noise. (Across deployment draws the accuracy itself spreads by
// ±20%, which would swamp every accuracy comparison between two
// versions of the program.)
const testbedSeed = 1

// trafficSetup returns a testbed setup whose simulator draws the
// traffic of seed: the deployment and calibration are the fixed
// testbed's, and the scene's random stream restarts from seed.
func trafficSetup(seed int64) (*exp.Setup, error) {
	g, err := exp.NewSetup(exp.Config{Seed: testbedSeed})
	if err != nil {
		return nil, err
	}
	g.Scene.Rand().Seed(seed)
	return g, nil
}

// Accuracy gates: a run whose mean accuracy is this far off the
// EXPERIMENTS.md Fig. 8/9 level is wrong, not slow. That level is a
// mean of ≈7 cm and ≈11° on bare tags, up to ≈13 cm and ≈28° on metal.
const (
	maxLocMean    = 0.15 // m
	maxOrientMean = 35.0 // degrees
)

// pose is a window's ground truth.
type pose struct {
	pos   geom.Vec3
	alpha float64
}

// gridCampaign is paper-grid's generated input.
type gridCampaign struct {
	blocks [][]rfprism.Window
	truth  [][]pose
	ants   []sim.Antenna
}

// newGridCampaign collects the campaign's windows from the testbed
// under seed's traffic. Windows are collected serially, so the
// campaign is a pure function of the seed.
func newGridCampaign(seed int64) (*gridCampaign, error) {
	g, err := trafficSetup(seed)
	if err != nil {
		return nil, err
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, err
	}
	c := &gridCampaign{ants: g.Scene.Antennas}
	add := func(alpha float64, m rf.Material) {
		var blk []rfprism.Window
		var tr []pose
		for _, pos := range g.GridPositions() {
			sp := g.CollectTrial(pos, alpha, m)
			blk = append(blk, rfprism.Window{Readings: sp.Readings})
			tr = append(tr, pose{pos: pos, alpha: alpha})
			if len(blk) == gridBlock {
				c.blocks = append(c.blocks, blk)
				c.truth = append(c.truth, tr)
				blk, tr = nil, nil
			}
		}
	}
	for _, deg := range exp.PaperDegrees {
		add(mathx.Rad(float64(deg)), none)
	}
	for _, m := range rf.EvaluationMaterials() {
		add(0, m)
	}
	return c, nil
}

// errors2D returns the localization error (m) and the orientation
// error (degrees, mod 180°) of an estimate.
func errors2D(x, y, alphaRad float64, truth pose) (loc, orient float64) {
	loc = math.Hypot(x-truth.pos.X, y-truth.pos.Y)
	orient = mathx.Deg(math.Abs(mathx.AngDiffPeriod(alphaRad, truth.alpha, math.Pi)))
	return loc, orient
}

// gridRun is one measured pass of paper-grid.
type gridRun struct {
	setup   []float64
	windows int
	// rejected counts windows the pipeline answered with an error
	// (the error detector's rejections): program output, reported in
	// ok_frac, not a harness failure.
	rejected int
	delta    spanDelta
	peakMB   float64
	fresh    *dist
	loc      *dist
	orient   *dist
	first    [][]rfprism.WindowResult
	workers  int
}

func gridPass(p params, c *gridCampaign, tr *spanTracer, o *outcome) (*gridRun, error) {
	r := &gridRun{
		workers: runtime.GOMAXPROCS(0),
		fresh:   newDist("fresh", "ms"),
		loc:     newDist("loc_err", "m"),
		orient:  newDist("orient_err", "deg"),
	}
	opts := []rfprism.Option{rfprism.WithParallelism(r.workers)}
	if tr != nil {
		opts = append(opts, rfprism.WithTracer(tr))
	}
	heap0 := liveHeap()
	var sys *rfprism.System
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := exp.NewSetup(exp.Config{Seed: testbedSeed, SysOpts: opts})
		if err != nil {
			return nil, fmt.Errorf("paper-grid setup: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		sys = s.Sys
	}

	ctx := context.Background()
	runtime.GC()
	sampler := startSampler(20*time.Millisecond, nil)
	if tr != nil {
		tr.active.Store(true)
	}
	m0 := markSpan()
	for pass := 0; time.Since(m0.wall) < p.seconds; pass++ {
		for bi, blk := range c.blocks {
			t0 := time.Now()
			res := sys.ProcessWindows(ctx, blk)
			r.fresh.addDur(time.Since(t0))
			if pass == 0 {
				r.first = append(r.first, res)
			}
			for i, wr := range res {
				r.windows++
				if pass > 0 {
					ref := r.first[bi][i]
					if (ref.Err == nil) != (wr.Err == nil) || (wr.Err == nil && ref.Result.Estimate != wr.Result.Estimate) {
						o.problem("paper-grid: block %d window %d changed between passes", bi, i)
					}
				}
				if wr.Err != nil {
					r.rejected++
					continue
				}
				if pass == 0 {
					e := wr.Result.Estimate
					loc, orient := errors2D(e.Pos.X, e.Pos.Y, e.Alpha, c.truth[bi][i])
					r.loc.add(loc)
					r.orient.add(orient)
				}
			}
			if time.Since(m0.wall) >= p.seconds {
				break
			}
		}
	}
	m1 := markSpan()
	if tr != nil {
		tr.active.Store(false)
	}
	r.peakMB = sampler.finish(heap0)
	r.delta = m0.to(m1)
	return r, nil
}

func runPaperGrid(p params) (*outcome, error) {
	c, err := newGridCampaign(p.seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	plain, err := gridPass(p, c, nil, o)
	if err != nil {
		return nil, err
	}
	p.log("paper-grid: %d windows in %.2fs, %d rejected, workers=%d", plain.windows, plain.delta.wall.Seconds(), plain.rejected, plain.workers)
	o.attempted = plain.windows
	gridMetrics(o, plain)
	for _, d := range []*dist{plain.fresh, plain.loc, plain.orient} {
		p.log("%s", d.summary())
	}
	if !p.trace {
		return o, nil
	}

	tr := newSpanTracer()
	traced, err := gridPass(p, c, tr, o)
	if err != nil {
		return nil, err
	}
	zeroLayer(o.layer)
	tr.fill(o.layer, traced.delta.wall, traced.workers)
	o.layer["rfprism.rejected"] = float64(traced.rejected)
	o.layer["go.gc_cpu_frac"] = traced.delta.gcCPUFrac
	o.layer["go.alloc_mb_per_window"] = float64(traced.delta.allocBytes) / (1 << 20) / float64(traced.windows)
	overhead(o.layer, plain.delta.cpu, plain.windows, plain.fresh, traced.delta.cpu, traced.windows, traced.fresh)
	p1, pN, err := solve2DSweep(c, plain.first, traced.workers)
	if err != nil {
		return nil, err
	}
	o.layer["core.solve2d_p1_ms"] = p1
	o.layer["core.solve2d_pN_ms"] = pN
	p.log("core.solve2d: p1=%.2fms p%d=%.2fms pool_busy=%.3f", p1, traced.workers, pN, o.layer["rfprism.pool_busy_frac"])
	return o, nil
}

// gridMetrics fills paper-grid's end-to-end metrics.
func gridMetrics(o *outcome, r *gridRun) {
	o.e2e["setup_s"] = median(r.setup)
	o.e2e["windows_per_s"] = float64(r.windows) / r.delta.wall.Seconds()
	o.e2e["cpu_ms_per_window"] = ms(r.delta.cpu) / float64(r.windows)
	o.e2e["peak_heap_mb"] = r.peakMB
	o.e2e["ok_frac"] = float64(r.windows-r.rejected) / float64(r.windows)
	quantile(o, r.fresh, "fresh_p50_ms", 0.50)
	accuracy(o, r.loc, r.orient)
}

// quantile records the q-quantile of d as the end-to-end metric name,
// failing the run when the percentile rule does not support it.
func quantile(o *outcome, d *dist, name string, q float64) {
	v, err := d.need(q)
	if err != nil {
		o.problem("%s: %v", name, err)
		return
	}
	o.e2e[name] = v
}

// accuracy records the accuracy metrics and applies the accuracy gate.
// The metrics are means, as EXPERIMENTS.md reports them: over a
// shelf's 130 tags the error medians and tails move by 15–40% from
// seed to seed, the mean localization error by about 5%.
func accuracy(o *outcome, loc, orient *dist) {
	o.e2e["loc_err_mean_m"] = loc.mean()
	o.e2e["orient_err_mean_deg"] = orient.mean()
	if v := loc.mean(); v > maxLocMean {
		o.problem("mean localization error %.3f m is far off the paper level (gate %.2f m)", v, maxLocMean)
	}
	if v := orient.mean(); v > maxOrientMean {
		o.problem("mean orientation error %.1f° is far off the paper level (gate %.0f°)", v, maxOrientMean)
	}
}

// zeroLayer initializes every per-layer metric to 0 (n/a) so a
// workload only sets the layers it exercises.
func zeroLayer(layer map[string]float64) {
	for _, d := range perLayer {
		layer[d.name] = 0
	}
}

// overhead records the tracing overhead: the traced pass's CPU per
// window and median freshness relative to the plain pass's.
func overhead(layer map[string]float64, plainCPU time.Duration, plainN int, plainFresh *dist, tracedCPU time.Duration, tracedN int, tracedFresh *dist) {
	pc := ms(plainCPU) / float64(plainN)
	tc := ms(tracedCPU) / float64(tracedN)
	layer["trace.overhead_cpu_frac"] = tc/pc - 1
	layer["trace.overhead_fresh_p50_frac"] = tracedFresh.q(0.5)/plainFresh.q(0.5) - 1
}

// solve2DSweep times direct core.Solve2D calls on fitted observations
// from the campaign's first 16 windows, at parallelism 1 and N: the
// single-threaded baseline beside the pool's scaling.
func solve2DSweep(c *gridCampaign, first [][]rfprism.WindowResult, n int) (p1, pN float64, err error) {
	bounds := rfprism.Bounds2D(sim.PaperRegion())
	var sets [][]core.Observation
	for _, blk := range first {
		for _, wr := range blk {
			if wr.Err != nil || len(wr.Result.Lines) != len(c.ants) {
				continue
			}
			obs := make([]core.Observation, len(c.ants))
			for i, a := range c.ants {
				obs[i] = core.Observation{ID: a.ID, Pos: a.Pos, Frame: a.Frame(), Line: wr.Result.Lines[i]}
			}
			sets = append(sets, obs)
			if len(sets) == 16 {
				break
			}
		}
		if len(sets) == 16 {
			break
		}
	}
	if len(sets) == 0 {
		return 0, 0, fmt.Errorf("paper-grid: no fitted observations for the Solve2D sweep")
	}
	at := func(par int) (float64, error) {
		d := newDist("solve2d", "ms")
		for _, obs := range sets {
			t0 := time.Now()
			if _, err := core.Solve2D(obs, bounds, core.Options{Parallelism: par}); err != nil {
				return 0, err
			}
			d.addDur(time.Since(t0))
		}
		return d.q(0.5), nil
	}
	if p1, err = at(1); err != nil {
		return 0, 0, err
	}
	pN, err = at(n)
	return p1, pN, err
}

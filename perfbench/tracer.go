package main

import (
	"sync"
	"sync/atomic"
	"time"

	"rfprism"
)

// spanTracer collects the pipeline's stage spans through the public
// rfprism.WithTracer hook while active is set: per-stage totals for the
// front end, and solve/window duration distributions.
type spanTracer struct {
	active atomic.Bool

	mu      sync.Mutex
	solve   *dist
	window  *dist
	stage   map[rfprism.Stage]time.Duration
	windows int
	busy    time.Duration
}

func newSpanTracer() *spanTracer {
	return &spanTracer{
		solve:  newDist("core.solve", "ms"),
		window: newDist("rfprism.window", "ms"),
		stage:  map[rfprism.Stage]time.Duration{},
	}
}

// RecordWindow implements rfprism.Tracer.
func (t *spanTracer) RecordWindow(_ string, spans []rfprism.Span) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range spans {
		t.stage[sp.Stage] += sp.Duration
		switch sp.Stage {
		case rfprism.StageSolve:
			t.solve.addDur(sp.Duration)
		case rfprism.StageWindow:
			t.window.addDur(sp.Duration)
			t.busy += sp.Duration
			t.windows++
		}
	}
}

// fill writes the tracer's per-layer metrics. wall is the measured
// interval and slots the number of pipeline workers that could have
// been busy during it.
func (t *spanTracer) fill(layer map[string]float64, wall time.Duration, slots int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	perWindow := func(st rfprism.Stage) float64 {
		if t.windows == 0 {
			return 0
		}
		return ms(t.stage[st]) / float64(t.windows)
	}
	layer["preprocess.spectra_ms"] = perWindow(rfprism.StageSpectra)
	layer["fit.line_ms"] = perWindow(rfprism.StageFit)
	layer["rfprism.select_ms"] = perWindow(rfprism.StageSelect)
	layer["rfprism.detector_ms"] = perWindow(rfprism.StageDetector)
	layer["core.solve_ms_p50"] = orZero(t.solve.q(0.50))
	layer["core.solve_ms_p95"] = orZero(t.solve.q(0.95))
	layer["rfprism.window_ms_p50"] = orZero(t.window.q(0.50))
	layer["rfprism.window_ms_p95"] = orZero(t.window.q(0.95))
	if wall > 0 && slots > 0 {
		layer["rfprism.pool_busy_frac"] = t.busy.Seconds() / (wall.Seconds() * float64(slots))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// orZero maps the NaN of an empty distribution to 0 (n/a).
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

package rfprism

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"rfprism/internal/core"
	"rfprism/internal/mathx"
)

// FastPathConfig configures the solver fast path for the tagged batch
// and stream entry points (ProcessWindows / ProcessStream): warm-started
// solves seeded from each tag's previous estimate, and a stationary-tag
// cache that skips the solve entirely when a tag's spectra have not
// moved. Both features key on Window.Tag — untagged windows always take
// the cold path. The zero value disables the fast path.
//
// The fast path is an accelerator, never an oracle: warm solves fall
// back to the full cold multistart when a consistency guard fails, and
// cached estimates are served only after re-verifying them against the
// current window's joint objective. See DESIGN.md §11.
type FastPathConfig struct {
	// WarmStart seeds each tagged solve from the tag's previous
	// estimate (see core.Options.WarmStart), collapsing the multistart
	// to a basin-local set when the tag moved little since the last
	// window.
	WarmStart bool
	// CacheSize > 0 enables the stationary-tag cache: an LRU over the
	// last CacheSize tags. A window whose per-antenna fitted lines
	// match the tag's previous window within CacheDK/CacheDB is served
	// the cached estimate (after verification) without solving at all.
	CacheSize int
	// CacheDK is the per-antenna slope tolerance (rad/Hz) for the
	// stationary match. The default 2e-9 is ≈5 cm of radial motion —
	// several times the slope's own window-to-window noise but far
	// inside the solver's wrap basin.
	CacheDK float64
	// CacheDB is the per-antenna intercept tolerance (rad) for the
	// stationary match. Intercepts move ≈38 rad/m of radial motion, so
	// the default 0.08 rad is a millimeter-scale gate.
	CacheDB float64
	// CacheGuardFactor bounds how much worse the cached estimate's
	// verified joint cost may be than max(cached cost, the well-fit
	// floor 2N) before the cache refuses to serve it. Default 3.
	CacheGuardFactor float64
}

// enabled reports whether any part of the fast path is on.
func (c FastPathConfig) enabled() bool { return c.WarmStart || c.CacheSize > 0 }

// withDefaults fills the zero tolerances.
func (c FastPathConfig) withDefaults() FastPathConfig {
	if c.CacheDK <= 0 {
		c.CacheDK = 2e-9
	}
	if c.CacheDB <= 0 {
		c.CacheDB = 0.08
	}
	if c.CacheGuardFactor <= 0 {
		c.CacheGuardFactor = 3
	}
	return c
}

// antennaSig is the slim per-antenna fingerprint the stationary match
// compares: which antenna, and its fitted line's slope and intercept.
type antennaSig struct {
	ID    int
	K, B0 float64
}

// tagState is one tag's fast-path memory: the last successful estimate
// and the fingerprint of the window that produced it.
type tagState struct {
	est Estimate
	sig []antennaSig
}

// solveCache is the per-tag LRU behind the fast path. Entries are
// replaced wholesale on put and their fields are never mutated after
// insertion, so get may hand out the stored pointer without copying.
// All methods are safe for concurrent use (batch workers share one).
type solveCache struct {
	cfg FastPathConfig

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *cacheEntry
	byTag map[string]*list.Element
	cap   int
}

type cacheEntry struct {
	tag string
	st  *tagState
}

func newSolveCache(cfg FastPathConfig) *solveCache {
	capacity := cfg.CacheSize
	if capacity <= 0 {
		// Warm start alone still needs per-tag memory; bound it.
		capacity = 64
	}
	return &solveCache{
		cfg:   cfg.withDefaults(),
		ll:    list.New(),
		byTag: make(map[string]*list.Element, capacity),
		cap:   capacity,
	}
}

func (sc *solveCache) get(tag string) *tagState {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	el, ok := sc.byTag[tag]
	if !ok {
		return nil
	}
	sc.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).st
}

func (sc *solveCache) put(tag string, st *tagState) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.byTag[tag]; ok {
		el.Value.(*cacheEntry).st = st
		sc.ll.MoveToFront(el)
		return
	}
	sc.byTag[tag] = sc.ll.PushFront(&cacheEntry{tag: tag, st: st})
	for sc.ll.Len() > sc.cap {
		oldest := sc.ll.Back()
		sc.ll.Remove(oldest)
		delete(sc.byTag, oldest.Value.(*cacheEntry).tag)
	}
}

// signature extracts the stationary-match fingerprint of a window's
// calibrated observations.
func signature(obs []core.Observation) []antennaSig {
	sig := make([]antennaSig, len(obs))
	for i, o := range obs {
		sig[i] = antennaSig{ID: o.ID, K: o.Line.K, B0: o.Line.B0}
	}
	return sig
}

// stationaryDelta reports whether the current window's observations
// fingerprint-match a previous window, and if so by how much the
// common-mode terms drifted. Position enters the per-antenna lines
// *differentially* (each antenna sits at a different distance), while
// the tag terms k_t and b_t enter *common-mode* (identically on every
// antenna) — so a uniform shift of all slopes or all intercepts is
// device/material drift, not motion, and must not break the match.
// The gates therefore apply to the residuals after removing the mean
// slope delta dK and the circular-mean intercept delta dB: same
// antennas in the same order, every slope residual within CacheDK,
// every intercept residual within CacheDB. The caller compensates the
// cached estimate by (dK, dB) before verifying it. A changed antenna
// set always misses — a tag that lost or regained an antenna is not
// "unchanged" even if the survivors agree.
func stationaryDelta(sig []antennaSig, obs []core.Observation, cfg FastPathConfig) (dK, dB float64, ok bool) {
	if len(sig) != len(obs) || len(obs) == 0 {
		return 0, 0, false
	}
	var sk, ss, sc float64
	for i, o := range obs {
		if sig[i].ID != o.ID {
			return 0, 0, false
		}
		sk += o.Line.K - sig[i].K
		s, c := math.Sincos(o.Line.B0 - sig[i].B0)
		ss += s
		sc += c
	}
	dK = sk / float64(len(obs))
	dB = math.Atan2(ss, sc)
	for i, o := range obs {
		if math.Abs(o.Line.K-sig[i].K-dK) > cfg.CacheDK {
			return 0, 0, false
		}
		if math.Abs(mathx.WrapPi(o.Line.B0-sig[i].B0-dB)) > cfg.CacheDB {
			return 0, 0, false
		}
	}
	return dK, dB, true
}

// solveStats aggregates the System's fast-path counters.
type solveStats struct {
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	core        core.SolveStats
}

// SolveStatsSnapshot is a point-in-time copy of the solver fast-path
// counters, see System.SolveStats.
type SolveStatsSnapshot struct {
	// CacheHits counts windows served from the stationary-tag cache
	// without solving.
	CacheHits int64
	// CacheMisses counts tagged fast-path windows that had to solve
	// (no previous state, the tag moved, or verification failed).
	CacheMisses int64
	// WarmAttempts / WarmFallbacks count solves that entered the warm
	// fast path and those that failed a guard and re-ran cold.
	WarmAttempts  int64
	WarmFallbacks int64
}

// SolveStats returns a snapshot of the solver fast-path counters. The
// counters are cumulative over the System's lifetime and safe to read
// while windows are being processed.
func (s *System) SolveStats() SolveStatsSnapshot {
	return SolveStatsSnapshot{
		CacheHits:     s.solveStats.cacheHits.Load(),
		CacheMisses:   s.solveStats.cacheMisses.Load(),
		WarmAttempts:  s.solveStats.core.WarmAttempts.Load(),
		WarmFallbacks: s.solveStats.core.WarmFallbacks.Load(),
	}
}

// solveEstimate runs the disentangler for one window, routing through
// the fast path when the System has one and the window is tagged:
//
//  1. If the tag's previous window fingerprint-matches this one
//     (stationaryDelta), compensate the cached estimate for the
//     common-mode k_t/b_t drift, verify it against this window's joint
//     objective, and serve it — no solve at all. The served estimate
//     carries this window's verified cost; the stored fingerprint is
//     deliberately NOT refreshed on a hit, so a tag creeping slowly
//     through the tolerance cannot ratchet the cache along with it —
//     positional drift accumulates against the original fingerprint
//     until it forces a real solve.
//  2. Otherwise solve, warm-seeded from the previous estimate when
//     WarmStart is on (core.Solve2D/3D fall back to the cold path
//     internally if the seed fails its guards).
//  3. Store the fresh estimate + fingerprint for the next window.
//
// Untagged windows and Systems without a fast path solve cold, exactly
// as before.
func (s *System) solveEstimate(tag string, obs []core.Observation) (Estimate, error) {
	opts := s.cfg.Pipeline.Solver
	opts.Stats = &s.solveStats.core

	var prev *tagState
	if s.fastpath != nil && tag != "" {
		prev = s.fastpath.get(tag)
		if prev != nil && s.fastpath.cfg.CacheSize > 0 {
			if dK, dB, ok := stationaryDelta(prev.sig, obs, s.fastpath.cfg); ok {
				est := prev.est
				est.Kt += dK
				est.Bt0 = mathx.Wrap2Pi(est.Bt0 + dB)
				cost := core.VerifyEstimate(obs, est, s.cfg.Pipeline.Mode3D, s.cfg.Pipeline.Solver)
				ceiling := s.fastpath.cfg.CacheGuardFactor *
					math.Max(prev.est.Cost, core.WarmCostFloor(len(obs)))
				if cost <= ceiling {
					s.solveStats.cacheHits.Add(1)
					est.Cost = cost
					return est, nil
				}
			}
		}
		s.solveStats.cacheMisses.Add(1)
		if prev != nil && s.fastpath.cfg.WarmStart {
			warm := prev.est
			opts.WarmStart = &warm
		}
	}

	var est Estimate
	var err error
	if s.cfg.Pipeline.Mode3D {
		est, err = core.Solve3D(obs, s.bounds, opts)
	} else {
		est, err = core.Solve2D(obs, s.bounds, opts)
	}
	if err != nil {
		return Estimate{}, err
	}
	if s.fastpath != nil && tag != "" {
		s.fastpath.put(tag, &tagState{est: est, sig: signature(obs)})
	}
	return est, nil
}

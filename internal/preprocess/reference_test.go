package preprocess

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rfprism/internal/mathx"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// referenceBuildSpectra is the map-grouping implementation that the
// counting-sort BuildSpectra replaced, kept verbatim as the bit-exact
// oracle: same arithmetic, same order, one allocation per dwell slice.
func referenceBuildSpectra(readings []sim.Reading, opts Options) ([]Spectrum, error) {
	opts.defaults()
	if len(readings) == 0 {
		return nil, errNoReadingsRef
	}
	type key struct{ ant, ch int }
	byDwell := make(map[key][]sim.Reading)
	antennas := make(map[int]bool)
	for _, r := range readings {
		byDwell[key{r.Antenna, r.Channel}] = append(byDwell[key{r.Antenna, r.Channel}], r)
		antennas[r.Antenna] = true
	}
	antIDs := make([]int, 0, len(antennas))
	for id := range antennas {
		antIDs = append(antIDs, id)
	}
	sort.Ints(antIDs)

	out := make([]Spectrum, 0, len(antIDs))
	for _, ant := range antIDs {
		var samples []ChannelSample
		for ch := 0; ch < 64; ch++ {
			reads := byDwell[key{ant, ch}]
			if len(reads) == 0 {
				continue
			}
			s, ok := referenceAggregateDwell(reads, opts)
			if ok {
				samples = append(samples, s)
			}
		}
		if len(samples) < 10 {
			continue
		}
		unwrapAcrossChannels(samples)
		out = append(out, Spectrum{Antenna: ant, Samples: samples})
	}
	if len(out) == 0 {
		return nil, errNoSpectrumRef
	}
	return out, nil
}

var (
	errNoReadingsRef = errors.New("no readings")
	errNoSpectrumRef = errors.New("no usable spectrum")
)

func referenceAggregateDwell(reads []sim.Reading, opts Options) (ChannelSample, bool) {
	fin := make([]sim.Reading, 0, len(reads))
	for _, r := range reads {
		if finite(r.Phase) && finite(r.FreqHz) && finite(r.RSSI) {
			fin = append(fin, r)
		}
	}
	if len(fin) < opts.MinReads {
		return ChannelSample{}, false
	}
	reads = fin
	phases := make([]float64, len(reads))
	for i, r := range reads {
		phases[i] = r.Phase
	}
	ref := phases[0]
	aligned := make([]float64, len(phases))
	for i, p := range phases {
		k := math.Round((ref - p) / math.Pi)
		aligned[i] = p + k*math.Pi
	}
	med := mathx.Median(aligned)
	kept := aligned[:0]
	keptIdx := make([]int, 0, len(aligned))
	for i, p := range aligned {
		if math.Abs(mathx.WrapPi(p-med)) <= opts.OutlierThreshold {
			kept = append(kept, p)
			keptIdx = append(keptIdx, i)
		}
	}
	if len(kept) < opts.MinReads {
		return ChannelSample{}, false
	}
	mean := mathx.Mean(kept)
	spread := mathx.Std(kept)
	support := 0
	for _, i := range keptIdx {
		if math.Abs(mathx.WrapPi(reads[i].Phase-mean)) < math.Pi/2 {
			support++
		}
	}
	if support*2 < len(keptIdx) {
		mean += math.Pi
	}
	var rssi float64
	for _, i := range keptIdx {
		rssi += reads[i].RSSI
	}
	rssi /= float64(len(keptIdx))
	return ChannelSample{
		Channel: reads[0].Channel,
		FreqHz:  reads[0].FreqHz,
		Phase:   mathx.Wrap2Pi(mean),
		RSSI:    rssi,
		Spread:  spread,
		Count:   len(kept),
	}, true
}

// hostileWindow is a seeded multi-antenna window that exercises every
// branch of the front end: π flips, interference outliers, NaN/±Inf
// fields, out-of-range channels, single-read dwells, interleaved
// arrival order and antennas that end up too sparse to keep.
func hostileWindow(rng *rand.Rand) []sim.Reading {
	ants := []int{7, 2, 5, 0}[:1+rng.Intn(4)]
	var out []sim.Reading
	for _, ant := range ants {
		k := (rng.Float64()*8 - 2) * 1e-8
		b := rng.Float64() * 2 * math.Pi
		nch := rf.NumChannels
		if rng.Float64() < 0.2 {
			nch = 4 + rng.Intn(10) // sometimes too sparse to keep
		}
		for ch := 0; ch < nch; ch++ {
			f, _ := rf.ChannelFreq(ch)
			reps := 1 + rng.Intn(8)
			for r := 0; r < reps; r++ {
				p := k*(f-rf.CenterFrequencyHz) + b + rng.NormFloat64()*0.05
				if rng.Float64() < 0.15 {
					p += math.Pi
				}
				if rng.Float64() < 0.08 {
					p = rng.Float64() * 2 * math.Pi
				}
				rd := sim.Reading{Antenna: ant, Channel: ch, FreqHz: f,
					Phase: rf.QuantizePhase(p), RSSI: rf.QuantizeRSSI(-50 + rng.NormFloat64()*3)}
				switch u := rng.Float64(); {
				case u < 0.02:
					rd.Phase = math.NaN()
				case u < 0.03:
					rd.FreqHz = math.Inf(1)
				case u < 0.04:
					rd.RSSI = math.Inf(-1)
				case u < 0.05:
					rd.Channel = -1 - rng.Intn(3)
				case u < 0.06:
					rd.Channel = 64 + rng.Intn(10)
				}
				out = append(out, rd)
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) {
		if rng.Float64() < 0.3 {
			out[i], out[j] = out[j], out[i]
		}
	})
	return out
}

func sameSpectraBits(t *testing.T, got, want []Spectrum) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d spectra, reference has %d", len(got), len(want))
	}
	b := math.Float64bits
	for i := range want {
		g, w := got[i], want[i]
		if g.Antenna != w.Antenna || len(g.Samples) != len(w.Samples) {
			t.Fatalf("spectrum %d: antenna %d with %d samples, reference antenna %d with %d",
				i, g.Antenna, len(g.Samples), w.Antenna, len(w.Samples))
		}
		for j := range w.Samples {
			gs, ws := g.Samples[j], w.Samples[j]
			if gs.Channel != ws.Channel || gs.Count != ws.Count ||
				b(gs.FreqHz) != b(ws.FreqHz) || b(gs.Phase) != b(ws.Phase) ||
				b(gs.RSSI) != b(ws.RSSI) || b(gs.Spread) != b(ws.Spread) {
				t.Fatalf("antenna %d sample %d: %+v, reference %+v", w.Antenna, j, gs, ws)
			}
		}
	}
}

// TestBuildSpectraMatchesReference: the counting-sort grouping and the
// shared dwell scratch must reproduce the map-based implementation bit
// for bit, including which antennas and dwells survive.
func TestBuildSpectraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		win := hostileWindow(rng)
		opts := Options{}
		if trial%3 == 1 {
			opts = Options{OutlierThreshold: 0.3, MinReads: 1}
		}
		want, wantErr := referenceBuildSpectra(win, opts)
		got, gotErr := BuildSpectra(win, opts)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: err %v, reference err %v", trial, gotErr, wantErr)
		}
		sameSpectraBits(t, got, want)
	}
	if _, err := BuildSpectra(nil, Options{}); err == nil {
		t.Fatal("empty input must error")
	}
}

// TestBuildSpectraAllocs bounds the front end's allocation count: the
// grouping and dwell scratch are per call, so a four-antenna,
// 50-channel window allocates a fixed handful of buffers plus one
// sample slice per antenna — not one slice per dwell.
func TestBuildSpectraAllocs(t *testing.T) {
	phaseAt := func(f float64) float64 { return 5e-8*(f-rf.CenterFrequencyHz) + 0.7 }
	var win []sim.Reading
	for ant := 0; ant < 4; ant++ {
		for _, r := range synthWindow(phaseAt, 6, 0.1, 0.05, rand.New(rand.NewSource(int64(ant)))) {
			r.Antenna = ant
			win = append(win, r)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildSpectra(win, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("BuildSpectra: %.0f allocs per window, want ≤ 12", allocs)
	}
}

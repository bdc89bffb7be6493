// Package preprocess turns raw reader reports into per-antenna phase
// spectra: it resolves the reader's π sign ambiguity inside each
// channel dwell, rejects transient interference outliers, averages
// repeated reads circularly, and unwraps the per-channel phases across
// the frequency band (the paper's "signal pre-processing module").
package preprocess

import (
	"fmt"
	"math"
	"sort"

	"rfprism/internal/mathx"
	"rfprism/internal/sim"
)

// ChannelSample is the aggregated measurement of one channel through
// one antenna.
type ChannelSample struct {
	Channel int
	FreqHz  float64
	// Phase is the per-dwell aggregated phase. In a Spectrum the
	// value is unwrapped across channels (so it can exceed [0, 2π)).
	Phase float64
	// RSSI is the mean RSSI of the dwell in dBm.
	RSSI float64
	// Spread is the post-alignment standard deviation of the reads
	// (rad) — a per-channel quality indicator.
	Spread float64
	// Count is the number of reads aggregated.
	Count int
}

// Spectrum is the unwrapped phase-vs-frequency curve of one antenna
// over one collection window.
type Spectrum struct {
	Antenna int
	Samples []ChannelSample // ascending channel order
}

// Freqs returns the sample frequencies in Hz.
func (s Spectrum) Freqs() []float64 {
	out := make([]float64, len(s.Samples))
	for i, c := range s.Samples {
		out[i] = c.FreqHz
	}
	return out
}

// Phases returns the unwrapped sample phases in rad.
func (s Spectrum) Phases() []float64 {
	out := make([]float64, len(s.Samples))
	for i, c := range s.Samples {
		out[i] = c.Phase
	}
	return out
}

// RSSIs returns the per-channel RSSI values in dBm.
func (s Spectrum) RSSIs() []float64 {
	out := make([]float64, len(s.Samples))
	for i, c := range s.Samples {
		out[i] = c.RSSI
	}
	return out
}

// MeanRSSI returns the mean RSSI across channels.
func (s Spectrum) MeanRSSI() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	var t float64
	for _, c := range s.Samples {
		t += c.RSSI
	}
	return t / float64(len(s.Samples))
}

// Options tunes the preprocessing stage. The zero value is usable.
type Options struct {
	// OutlierThreshold is the residual (rad) beyond which an
	// individual read inside a dwell is discarded as interference.
	// Default 0.6 rad.
	OutlierThreshold float64
	// MinReads is the minimum surviving reads a dwell needs to
	// produce a sample. Default 2.
	MinReads int
}

func (o *Options) defaults() {
	if o.OutlierThreshold <= 0 {
		o.OutlierThreshold = 0.6
	}
	if o.MinReads <= 0 {
		o.MinReads = 2
	}
}

// numDwellChannels is the channel index range BuildSpectra visits per
// antenna; readings outside [0, numDwellChannels) are ignored.
const numDwellChannels = 64

// BuildSpectra groups raw readings by antenna, aggregates each channel
// dwell and unwraps across channels. Antennas with fewer than 10
// usable channels are dropped. The result is sorted by antenna ID.
//
// The grouping is a counting sort of reading indices by (antenna,
// channel) that keeps arrival order inside each dwell, and every dwell
// is aggregated in one per-call scratch, so a window costs a handful
// of allocations however many reads it carries.
func BuildSpectra(readings []sim.Reading, opts Options) ([]Spectrum, error) {
	opts.defaults()
	if len(readings) == 0 {
		return nil, fmt.Errorf("preprocess: no readings")
	}
	antIDs := antennaIDs(readings)
	nd := len(antIDs) * numDwellChannels
	// start[d]..start[d+1] delimits dwell d = antIdx·64 + ch in order.
	start := make([]int, nd+1)
	idx := make([]int, len(readings)+nd)
	dwell, next := idx[:len(readings)], idx[len(readings):]
	for i := range readings {
		r := &readings[i]
		dwell[i] = -1
		if r.Channel < 0 || r.Channel >= numDwellChannels {
			continue
		}
		d := sort.SearchInts(antIDs, r.Antenna)*numDwellChannels + r.Channel
		dwell[i] = d
		start[d+1]++
	}
	maxDwell := 0
	for d := 0; d < nd; d++ {
		if n := start[d+1]; n > maxDwell {
			maxDwell = n
		}
		start[d+1] += start[d]
	}
	order := make([]int, start[nd])
	copy(next, start[:nd])
	for i, d := range dwell {
		if d >= 0 {
			order[next[d]] = i
			next[d]++
		}
	}

	sc := newDwellScratch(maxDwell)
	out := make([]Spectrum, 0, len(antIDs))
	for a, ant := range antIDs {
		var samples []ChannelSample
		for ch := 0; ch < numDwellChannels; ch++ {
			d := a*numDwellChannels + ch
			if start[d] == start[d+1] {
				continue
			}
			if s, ok := sc.aggregate(readings, order[start[d]:start[d+1]], opts); ok {
				if samples == nil {
					samples = make([]ChannelSample, 0, numDwellChannels-ch)
				}
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
		return nil, fmt.Errorf("preprocess: no antenna produced a usable spectrum")
	}
	return out, nil
}

// antennaIDs returns the distinct antenna IDs of readings, ascending.
// A window carries a few antennas, so a linear membership scan with a
// repeat-of-last shortcut beats a map.
func antennaIDs(readings []sim.Reading) []int {
	ids := make([]int, 0, 8)
	last := 0
	for i := range readings {
		a := readings[i].Antenna
		if len(ids) > 0 && a == last {
			continue
		}
		last = a
		seen := false
		for _, id := range ids {
			if id == a {
				seen = true
				break
			}
		}
		if !seen {
			ids = append(ids, a)
		}
	}
	sort.Ints(ids)
	return ids
}

// finite reports whether x is a usable measurement value. A faulted
// reader can surface NaN/±Inf phases or frequencies; such reads are
// dropped before any arithmetic touches them.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// dwellScratch holds the per-dwell working buffers of one BuildSpectra
// call, sized to its largest dwell and reused for every dwell.
type dwellScratch struct {
	fin     []int // reading indices with finite fields, arrival order
	aligned []float64
	med     []float64 // median copy, sorted in place
	keptIdx []int     // positions in fin surviving the outlier trim
}

func newDwellScratch(n int) *dwellScratch {
	buf := make([]float64, 2*n)
	idx := make([]int, 2*n)
	return &dwellScratch{
		fin:     idx[0:0:n],
		keptIdx: idx[n : n : 2*n],
		aligned: buf[0:0:n],
		med:     buf[n : n : 2*n],
	}
}

// aggregate resolves π flips, trims interference outliers and
// circularly averages the reads readings[idx[...]] of one dwell. Reads
// carrying non-finite phase, frequency or RSSI are discarded up front.
func (sc *dwellScratch) aggregate(readings []sim.Reading, idx []int, opts Options) (ChannelSample, bool) {
	fin := sc.fin[:0]
	for _, i := range idx {
		r := &readings[i]
		if finite(r.Phase) && finite(r.FreqHz) && finite(r.RSSI) {
			fin = append(fin, i)
		}
	}
	if len(fin) < opts.MinReads {
		return ChannelSample{}, false
	}
	// Align every read to the first one modulo π: each raw phase is
	// shifted by the multiple of π that brings it within ±π/2 of the
	// reference, collapsing the reader's sign ambiguity.
	ref := readings[fin[0]].Phase
	aligned := sc.aligned[:len(fin)]
	for j, i := range fin {
		p := readings[i].Phase
		k := math.Round((ref - p) / math.Pi)
		aligned[j] = p + k*math.Pi
	}
	// Robust pass: discard reads far from the median (transient
	// interference), then average.
	med := mathx.MedianInPlace(append(sc.med[:0], aligned...))
	kept := aligned[:0]
	keptIdx := sc.keptIdx[:0]
	for j, p := range aligned {
		if math.Abs(mathx.WrapPi(p-med)) <= opts.OutlierThreshold {
			kept = append(kept, p)
			keptIdx = append(keptIdx, j)
		}
	}
	if len(kept) < opts.MinReads {
		return ChannelSample{}, false
	}
	mean := mathx.Mean(kept)
	spread := mathx.Std(kept)

	// Majority vote on the absolute branch: the aligned mean is
	// either the true phase or true+π. Count raw reads supporting
	// each candidate; flips are a minority, so majority wins.
	support := 0
	for _, j := range keptIdx {
		if math.Abs(mathx.WrapPi(readings[fin[j]].Phase-mean)) < math.Pi/2 {
			support++
		}
	}
	if support*2 < len(keptIdx) {
		mean += math.Pi
	}

	var rssi float64
	for _, j := range keptIdx {
		rssi += readings[fin[j]].RSSI
	}
	rssi /= float64(len(keptIdx))

	first := &readings[fin[0]]
	return ChannelSample{
		Channel: first.Channel,
		FreqHz:  first.FreqHz,
		Phase:   mathx.Wrap2Pi(mean),
		RSSI:    rssi,
		Spread:  spread,
		Count:   len(kept),
	}, true
}

// unwrapAcrossChannels removes 2π folds between adjacent channel
// samples in place. Genuine phase steps between 500 kHz-spaced
// channels are far below π, so nearest-fold continuity is safe.
//
// Channels aggregated from very few reads cannot resolve the reader's
// π sign ambiguity reliably by majority vote (a 1–1 tie is a coin
// flip), so for those the branch is additionally repaired by
// continuity: if flipping by π brings the sample closer to its
// predecessor, it was mis-branched. Channels with enough reads keep
// their absolute majority branch, which stops a mis-branched run from
// cascading through the whole band.
func unwrapAcrossChannels(samples []ChannelSample) {
	const reliableCount = 4
	for i := 1; i < len(samples); i++ {
		prev := samples[i-1].Phase
		p := samples[i].Phase
		if samples[i].Count < reliableCount {
			// Choose among p + kπ the value closest to the previous
			// channel (branch repair + fold correction in one step).
			k := math.Round((prev - p) / math.Pi)
			samples[i].Phase = p + k*math.Pi
			continue
		}
		k := math.Round((prev - p) / (2 * math.Pi))
		samples[i].Phase = p + k*2*math.Pi
	}
}

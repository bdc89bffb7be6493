package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"rfprism/internal/geom"
	"rfprism/internal/ingest"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// Service-workload inputs. A report stream is generated before timing
// starts from the seeded simulator, on the testbed the shards are
// calibrated for, and turned into an open-loop send schedule: chunks
// of reports, each with the time it is due, encoded to NDJSON just
// before they are sent. The same stream is sessionized offline with
// the daemon's own sessionizer config, which gives every window the
// report that closes it, the exact window count the subscribers must
// see, and the anchor of its freshness: the due time of the chunk that
// carries the closing report, when that report is sent.

// Reports are grouped into POSTs: every report due within one tick
// rides in one request, sent when the tick's last report is due. Tick
// lengths are drawn uniformly from [minTick, maxTick), 10 ms on
// average. On a fixed 10 ms grid every window would close at the same
// phase of the shards' 5 ms snapshot-swap ticker; that phase is set
// by when the cluster started, and it moved median freshness between
// ≈5.6 and ≈9.9 ms from run to run.
const (
	minTick = 5 * time.Millisecond
	maxTick = 15 * time.Millisecond
)

// tagPlan is one simulated tag: its identity, ground truth, when its
// reader's hop clock starts and how many hop rounds it is read for.
// Round k spans [start + k·span, start + (k+1)·span).
type tagPlan struct {
	epc    string
	truth  pose
	mat    rf.Material
	start  time.Duration
	rounds int
}

// report is one generated reader report, stored compactly: the
// frequency follows from the channel and the EPC from the tag index,
// so a long stream stays small in memory until it is encoded for
// sending.
type report struct {
	t       time.Duration // due offset from schedule start (the wire "t")
	phase   float64
	rssi    float64
	tag     int32
	antenna int16
	channel int16
}

// chunk is one scheduled ingest POST: reports[lo:hi] of the stream.
type chunk struct {
	due    time.Duration // offset from schedule start
	lo, hi int
}

type winKey struct {
	epc string
	seq int
}

// offWindow is one window of the offline sessionization.
type offWindow struct {
	key    winKey
	due    time.Duration // send time of the report that closes it
	reason ingest.CloseReason
}

// readOp is one scheduled read: a point read of epc, or a page read
// when epc is empty.
type readOp struct {
	due time.Duration
	epc string
}

// svcInput is a service workload's generated input.
type svcInput struct {
	reports []report
	chunks  []chunk
	windows []offWindow
	known   map[winKey]bool
	truth   map[string]pose
	epcs    []string
	reads   []readOp
	// The measured span: windows whose closing report is due in
	// [from, to) are measured; nothing is sent at or after to.
	from, to time.Duration
}

func (in *svcInput) measured(w offWindow) bool { return w.due >= in.from && w.due < in.to }

// sessionizerConfig is the daemon's window assembly config, shared by
// the shards and the offline sessionization (the defaults: a full
// 50-channel round, 15 s dwell).
func sessionizerConfig() ingest.SessionizerConfig { return ingest.SessionizerConfig{} }

// tagReadings generates one tag's reports (due offsets), cut at
// horizon.
func tagReadings(sc *sim.Scene, idx int, t tagPlan, horizon time.Duration) ([]report, error) {
	tag := sim.Tag{EPC: t.epc, Diversity: rf.NewTagDiversity(sc.Rand())}
	place := sc.Place(t.truth.pos, t.truth.alpha, t.mat)
	span := sc.RoundSpan()
	var out []report
	for k := 0; k < t.rounds; k++ {
		off := t.start + time.Duration(k)*span
		if off >= horizon {
			break
		}
		for _, rd := range sc.CollectWindow(tag, place) {
			rd.T += off
			if rd.T >= horizon {
				continue
			}
			if f, _ := rf.ChannelFreq(rd.Channel); f != rd.FreqHz {
				return nil, fmt.Errorf("tag %s: report frequency %v is not channel %d's", t.epc, rd.FreqHz, rd.Channel)
			}
			out = append(out, report{t: rd.T, phase: rd.Phase, rssi: rd.RSSI, tag: int32(idx), antenna: int16(rd.Antenna), channel: int16(rd.Channel)})
		}
	}
	return out, nil
}

// mergeHeap orders per-tag cursors by the due time of their next
// report (tag index breaks ties, so the merge is deterministic).
type cursor struct {
	tag int
	rds []report
}
type mergeHeap []*cursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].rds[0].t, h[j].rds[0].t
	if a != b {
		return a < b
	}
	return h[i].tag < h[j].tag
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*cursor)) }
func (h *mergeHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// buildInput generates the stream of plans under seed's traffic,
// sends nothing due at or after to, and sessionizes it offline.
func buildInput(seed int64, plans []tagPlan, span, from, to time.Duration) (*svcInput, error) {
	g, err := trafficSetup(seed)
	if err != nil {
		return nil, err
	}
	// A shorter round compresses hop time (tests only; the workloads
	// run at the reader's real pace).
	g.Scene.Cfg.DwellTime = span / rf.NumChannels
	in := &svcInput{known: map[winKey]bool{}, truth: map[string]pose{}, from: from, to: to}
	h := &mergeHeap{}
	for i, t := range plans {
		rds, err := tagReadings(g.Scene, i, t, to)
		if err != nil {
			return nil, err
		}
		in.truth[t.epc] = t.truth
		in.epcs = append(in.epcs, t.epc)
		if len(rds) > 0 {
			*h = append(*h, &cursor{tag: i, rds: rds})
		}
	}
	heap.Init(h)

	z := ingest.NewSessionizer(sessionizerConfig())
	base := time.Unix(0, 0)
	expireEvery := 250 * time.Millisecond
	nextExpire := expireEvery
	// closers[i] is the chunk that carries window i's closing report
	// (-1 when the window was closed by its deadline).
	var closers []int
	ticks := rand.New(rand.NewSource(seed ^ 0x71c5))
	var tickEnd time.Duration
	closeWin := func(cw ingest.ClosedWindow, due time.Duration, chunk int) {
		k := winKey{cw.EPC, cw.Seq}
		in.known[k] = true
		in.windows = append(in.windows, offWindow{key: k, due: due, reason: cw.Reason})
		closers = append(closers, chunk)
	}
	for h.Len() > 0 {
		c := (*h)[0]
		rp := c.rds[0]
		if c.rds = c.rds[1:]; len(c.rds) == 0 {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
		for rp.t >= nextExpire {
			for _, cw := range z.Expire(base.Add(nextExpire)) {
				closeWin(cw, nextExpire, -1)
			}
			nextExpire += expireEvery
		}
		seq := len(in.reports)
		if len(in.chunks) == 0 || rp.t >= tickEnd {
			for tickEnd <= rp.t {
				tickEnd += minTick + time.Duration(ticks.Int63n(int64(maxTick-minTick)))
			}
			in.chunks = append(in.chunks, chunk{lo: seq, hi: seq})
		}
		ci := len(in.chunks) - 1
		in.chunks[ci].hi++
		in.chunks[ci].due = rp.t
		in.reports = append(in.reports, rp)
		if cw, closed, err := z.AddSeq(in.reading(rp), uint64(seq+1), base.Add(rp.t)); err != nil {
			return nil, err
		} else if closed {
			closeWin(cw, 0, ci)
		}
	}
	// A chunk is sent when its last report is due, so that is when the
	// closing report leaves the reader.
	for i, ci := range closers {
		if ci >= 0 {
			in.windows[i].due = in.chunks[ci].due
		}
	}
	return in, nil
}

// reading expands a compact report into the simulator's reading.
func (in *svcInput) reading(rp report) sim.Reading {
	f, _ := rf.ChannelFreq(int(rp.channel))
	return sim.Reading{
		EPC:     in.epcs[rp.tag],
		Antenna: int(rp.antenna),
		Channel: int(rp.channel),
		FreqHz:  f,
		Phase:   rp.phase,
		RSSI:    rp.rssi,
		T:       rp.t,
	}
}

// encode appends the chunk's reports to dst as NDJSON, byte-identical
// to encoding/json's rendering of sim.Reading (the rfprism-sim -stream
// wire format).
func (in *svcInput) encode(dst []byte, ch chunk) []byte {
	for _, rp := range in.reports[ch.lo:ch.hi] {
		rd := in.reading(rp)
		dst = append(dst, `{"epc":`...)
		dst = strconv.AppendQuote(dst, rd.EPC)
		dst = append(dst, `,"antenna":`...)
		dst = strconv.AppendInt(dst, int64(rd.Antenna), 10)
		dst = append(dst, `,"channel":`...)
		dst = strconv.AppendInt(dst, int64(rd.Channel), 10)
		dst = append(dst, `,"freqHz":`...)
		dst = appendJSONFloat(dst, rd.FreqHz)
		dst = append(dst, `,"phase":`...)
		dst = appendJSONFloat(dst, rd.Phase)
		dst = append(dst, `,"rssi":`...)
		dst = appendJSONFloat(dst, rd.RSSI)
		dst = append(dst, `,"t":`...)
		dst = strconv.AppendInt(dst, int64(rd.T), 10)
		dst = append(dst, "}\n"...)
	}
	return dst
}

// appendJSONFloat renders f the way encoding/json does.
func appendJSONFloat(dst []byte, f float64) []byte {
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		b, _ := json.Marshal(f)
		return append(dst, b...)
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// addReads schedules the read mix over the measured span: pointRate
// point reads per second of uniformly drawn population EPCs, and
// pageRate page reads per second.
func (in *svcInput) addReads(seed int64, pointRate, pageRate float64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var point, page []readOp
	for t := in.from; t < in.to; t += time.Duration(float64(time.Second) / pointRate) {
		point = append(point, readOp{due: t, epc: in.epcs[rng.Intn(len(in.epcs))]})
	}
	for t := in.from; t < in.to; t += time.Duration(float64(time.Second) / pageRate) {
		page = append(page, readOp{due: t})
	}
	for len(point)+len(page) > 0 {
		if len(page) > 0 && (len(point) == 0 || page[0].due <= point[0].due) {
			in.reads, page = append(in.reads, page[0]), page[1:]
		} else {
			in.reads, point = append(in.reads, point[0]), point[1:]
		}
	}
}

// randomPose draws a position inside the working region (inset 10%)
// and an in-plane rotation.
func randomPose(rng *rand.Rand) pose {
	r := sim.PaperRegion()
	ix, iy := 0.1*(r.XMax-r.XMin), 0.1*(r.YMax-r.YMin)
	return pose{
		pos: geom.Vec3{
			X: r.XMin + ix + rng.Float64()*(r.XMax-r.XMin-2*ix),
			Y: r.YMin + iy + rng.Float64()*(r.YMax-r.YMin-2*iy),
		},
		alpha: rng.Float64() * math.Pi,
	}
}

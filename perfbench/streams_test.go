package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"rfprism/internal/rf"
)

// smallShelf builds a compressed-hop shelf input: 1 s rounds, 6 tags.
func smallShelf(t *testing.T, seed int64) *svcInput {
	t.Helper()
	spec, err := shelfSpec(seed, 1500*time.Millisecond, 6, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return spec.in
}

// TestClosingReports checks the window → closing-report mapping
// against an independent reading of the stream: a tag's window closes
// on the report that brings its distinct-channel count to a full
// round, the next report of that tag opens the next window, and the
// window's freshness runs from the send time of the chunk that
// carries the closing report.
func TestClosingReports(t *testing.T) {
	for _, in := range []*svcInput{smallShelf(t, 3), smallShelf(t, 4)} {
		type state struct {
			seen map[int16]bool
			seq  int
		}
		tags := map[int32]*state{}
		var want []offWindow
		ci := 0
		for i, rp := range in.reports {
			for in.chunks[ci].hi <= i {
				ci++
			}
			ch := in.chunks[ci]
			if i < ch.lo || ch.due < rp.t || ch.due-in.reports[ch.lo].t >= maxTick {
				t.Fatalf("report %d (t=%v) rides in chunk [%d,%d) due %v", i, rp.t, ch.lo, ch.hi, ch.due)
			}
			st := tags[rp.tag]
			if st == nil {
				st = &state{seen: map[int16]bool{}}
				tags[rp.tag] = st
			}
			st.seen[rp.channel] = true
			if len(st.seen) == rf.NumChannels {
				want = append(want, offWindow{key: winKey{in.epcs[rp.tag], st.seq}, due: ch.due})
				st.seq++
				st.seen = map[int16]bool{}
			}
		}
		if len(want) == 0 || len(in.windows) != len(want) {
			t.Fatalf("offline sessionization closed %d windows, the reference %d", len(in.windows), len(want))
		}
		for i, w := range in.windows {
			if w.key != want[i].key || w.due != want[i].due {
				t.Errorf("window %d: got %s/%d sent at %v, want %s/%d at %v",
					i, w.key.epc, w.key.seq, w.due, want[i].key.epc, want[i].key.seq, want[i].due)
			}
			if w.due >= in.to {
				t.Errorf("window %s/%d closes at %v, after the schedule ends at %v", w.key.epc, w.key.seq, w.due, in.to)
			}
		}
	}
}

func encodeAll(in *svcInput) []byte {
	var b []byte
	for _, ch := range in.chunks {
		b = in.encode(b, ch)
	}
	return b
}

// TestInputsDeterministic: one seed gives byte-identical inputs, and
// the encoder renders exactly what encoding/json renders.
func TestInputsDeterministic(t *testing.T) {
	a, b := smallShelf(t, 7), smallShelf(t, 7)
	ea, eb := encodeAll(a), encodeAll(b)
	if !bytes.Equal(ea, eb) {
		t.Fatal("same seed, different report streams")
	}
	if len(a.chunks) != len(b.chunks) || len(a.reads) != len(b.reads) {
		t.Fatal("same seed, different schedules")
	}
	for i := range a.chunks {
		if a.chunks[i] != b.chunks[i] {
			t.Fatalf("chunk %d differs: %+v vs %+v", i, a.chunks[i], b.chunks[i])
		}
	}
	for i := range a.reads {
		if a.reads[i] != b.reads[i] {
			t.Fatalf("read %d differs", i)
		}
	}
	if bytes.Equal(ea, encodeAll(smallShelf(t, 8))) {
		t.Fatal("different seeds, identical report streams")
	}

	lines := bytes.Split(bytes.TrimSuffix(ea, []byte("\n")), []byte("\n"))
	if len(lines) != len(a.reports) {
		t.Fatalf("%d lines for %d reports", len(lines), len(a.reports))
	}
	for i, rp := range a.reports {
		want, err := json.Marshal(a.reading(rp))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lines[i], want) {
			t.Fatalf("report %d: encoded %s, encoding/json gives %s", i, lines[i], want)
		}
	}
	for _, x := range []float64{0, 1e-7, -2.5e-9, 3.25e21, 902750000, 6.283185307179586} {
		want, _ := json.Marshal(x)
		if got := appendJSONFloat(nil, x); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%g) = %s, want %s", x, got, want)
		}
	}
}

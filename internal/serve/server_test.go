package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfprism/internal/ingest"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	ID    string
	Event string
	Data  string
}

// sseTestServer mounts the streaming surface over a trivial inner
// handler on a real HTTP server (real flusher, real client contexts).
func sseTestServer(t *testing.T, st *Store, lim *Limiter) *httptest.Server {
	t.Helper()
	srv := NewServer(st, lim, nil)
	srv.SetHeartbeat(50 * time.Millisecond)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot) // distinguishable fallthrough
	})
	ts := httptest.NewServer(srv.Wrap(inner))
	t.Cleanup(ts.Close)
	return ts
}

// openSSE starts one SSE client and parses its frames (heartbeat
// comments skipped) onto a channel that closes at stream end. The
// stream is torn down with the test.
func openSSE(t *testing.T, url string, hdr map[string]string) (*http.Response, <-chan sseEvent) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	events := make(chan sseEvent, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev != (sseEvent{}) {
					events <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, ":"): // heartbeat comment
			case strings.HasPrefix(line, "id: "):
				ev.ID = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				ev.Event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.Data = strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	return resp, events
}

func nextEvent(t *testing.T, events <-chan sseEvent, what string) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatalf("stream ended waiting for %s", what)
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	panic("unreachable")
}

func epcOf(t *testing.T, ev sseEvent) string {
	t.Helper()
	var res struct {
		EPC string `json:"epc"`
		Seq int    `json:"seq"`
	}
	if err := json.Unmarshal([]byte(ev.Data), &res); err != nil {
		t.Fatalf("bad result data %q: %v", ev.Data, err)
	}
	return res.EPC
}

func TestSSETagStream(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)
	epoch := emitVisible(t, st, tr("A", 1))

	resp, events := openSSE(t, ts.URL+"/v1/tags/A/stream", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if resp.Header.Get("X-RFPrism-Epoch") == "" {
		t.Fatal("missing X-RFPrism-Epoch header")
	}

	// A fresh per-tag subscriber is primed with the current state.
	ev := nextEvent(t, events, "primer event")
	if ev.Event != "result" || epcOf(t, ev) != "A" {
		t.Fatalf("primer = %+v, want result for A", ev)
	}
	if id, _ := strconv.ParseUint(ev.ID, 10, 64); id != epoch {
		t.Fatalf("primer id = %s, want tag epoch %d", ev.ID, epoch)
	}

	// Another tag's result must not leak into the per-EPC stream.
	emitVisible(t, st, tr("B", 1))
	emitVisible(t, st, tr("A", 2))
	ev = nextEvent(t, events, "live event")
	if ev.Event != "result" || epcOf(t, ev) != "A" {
		t.Fatalf("live event = %+v, want the next A result only", ev)
	}
}

func TestSSEResumeReplaysWindow(t *testing.T) {
	st := newTestStore(t, StoreConfig{RecentEpochs: 8})
	ts := sseTestServer(t, st, nil)
	for i := 1; i <= 3; i++ {
		emitVisible(t, st, tr("A", i))
	}
	head := st.Epoch()

	// Resume from one epoch back via the standard reconnect header: the
	// missed batch is replayed before live events.
	_, events := openSSE(t, ts.URL+"/v1/tags/A/stream", map[string]string{
		"Last-Event-ID": strconv.FormatUint(head-1, 10),
	})
	ev := nextEvent(t, events, "replayed event")
	if ev.Event != "result" || ev.ID != strconv.FormatUint(head, 10) {
		t.Fatalf("replay = %+v, want the head batch at epoch %d", ev, head)
	}

	// ?since= is the query-param spelling of the same resume.
	_, events2 := openSSE(t, ts.URL+"/v1/tags/A/stream?since="+strconv.FormatUint(head-1, 10), nil)
	if ev := nextEvent(t, events2, "since= replay"); ev.Event != "result" {
		t.Fatalf("since= replay = %+v", ev)
	}
}

func TestSSEResyncBehindWindow(t *testing.T) {
	st := newTestStore(t, StoreConfig{RecentEpochs: 2})
	ts := sseTestServer(t, st, nil)
	for i := 1; i <= 4; i++ {
		emitVisible(t, st, tr("A", i))
	}

	_, events := openSSE(t, ts.URL+"/v1/tags/A/stream?since=1", nil)
	ev := nextEvent(t, events, "resync event")
	if ev.Event != "resync" {
		t.Fatalf("first frame = %+v, want resync for a client behind the window", ev)
	}
	var body struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(ev.Data), &body); err != nil || body.Epoch == 0 {
		t.Fatalf("resync data = %q (%v)", ev.Data, err)
	}
	// Live events still follow the resync marker.
	emitVisible(t, st, tr("A", 5))
	if ev := nextEvent(t, events, "post-resync live event"); ev.Event != "result" {
		t.Fatalf("post-resync event = %+v", ev)
	}
}

func TestSSEFirehoseAndPrefix(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)

	_, all := openSSE(t, ts.URL+"/v1/stream", nil)
	_, onlyB := openSSE(t, ts.URL+"/v1/stream?prefix=B-", nil)

	// Give both streams time to subscribe before publishing.
	waitFor(t, 2*time.Second, "both firehose subscribers", func() bool {
		return st.Hub().Subscribers() == 2
	})
	emitVisible(t, st, tr("A-1", 1))
	emitVisible(t, st, tr("B-1", 1))

	got := map[string]bool{}
	for len(got) < 2 {
		got[epcOf(t, nextEvent(t, all, "firehose event"))] = true
	}
	if !got["A-1"] || !got["B-1"] {
		t.Fatalf("firehose saw %v, want both tags", got)
	}
	if epc := epcOf(t, nextEvent(t, onlyB, "prefix-filtered event")); epc != "B-1" {
		t.Fatalf("prefix stream saw %q, want B-1 only", epc)
	}
}

// TestSSEFirehoseDeliversWholeSwap: every result of a multi-result swap
// shares one epoch, and the firehose and a ?prefix= stream must deliver
// all of them, not only the first.
func TestSSEFirehoseDeliversWholeSwap(t *testing.T) {
	// Only the BatchSize trigger swaps, so the three results below are
	// published together.
	st := newTestStore(t, StoreConfig{SwapInterval: time.Hour, BatchSize: 3})
	ts := sseTestServer(t, st, nil)
	_, all := openSSE(t, ts.URL+"/v1/stream", nil)
	_, onlyB := openSSE(t, ts.URL+"/v1/stream?prefix=B-", nil)
	waitFor(t, 2*time.Second, "both firehose subscribers", func() bool {
		return st.Hub().Subscribers() == 2
	})

	for _, r := range []ingest.TagResult{tr("B-1", 1), tr("A-1", 1), tr("B-2", 1)} {
		if err := st.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "the batch swap", func() bool { return st.Swaps() == 1 })
	epoch := strconv.FormatUint(st.Epoch(), 10)

	read := func(events <-chan sseEvent, want ...string) {
		t.Helper()
		for _, epc := range want {
			ev := nextEvent(t, events, epc)
			if ev.Event != "result" || ev.ID != epoch || epcOf(t, ev) != epc {
				t.Fatalf("event = %+v, want %s's result at epoch %s", ev, epc, epoch)
			}
		}
	}
	read(all, "B-1", "A-1", "B-2")
	read(onlyB, "B-1", "B-2")
}

func TestSSEShutdownSendsDropped(t *testing.T) {
	st := NewStore(StoreConfig{SwapInterval: time.Millisecond})
	ts := sseTestServer(t, st, nil)
	_, events := openSSE(t, ts.URL+"/v1/stream", nil)
	waitFor(t, 2*time.Second, "subscriber registration", func() bool {
		return st.Hub().Subscribers() == 1
	})
	_ = st.Close()
	for {
		ev := nextEvent(t, events, "dropped event")
		if ev.Event != "dropped" {
			continue
		}
		var body struct {
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal([]byte(ev.Data), &body); err != nil || body.Reason != "shutdown" {
			t.Fatalf("dropped data = %q (%v), want shutdown", ev.Data, err)
		}
		return
	}
}

func TestSSEStreamQuota(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	lim := NewLimiter(LimiterConfig{MaxStreams: 1})
	ts := sseTestServer(t, st, lim)

	hdr := map[string]string{"X-API-Key": "client-1"}
	resp, _ := openSSE(t, ts.URL+"/v1/stream", hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first stream status = %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stream", nil)
	req.Header.Set("X-API-Key", "client-1")
	over, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Body.Close()
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota stream status = %d, want 429", over.StatusCode)
	}
	var envelope struct {
		Code string `json:"code"`
	}
	body, _ := io.ReadAll(over.Body)
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Code != CodeStreamQuota {
		t.Fatalf("over-quota envelope = %q (%v), want code %s", body, err, CodeStreamQuota)
	}
	if lim.StreamRejects() != 1 {
		t.Fatalf("StreamRejects = %d, want 1", lim.StreamRejects())
	}

	// A different client still gets its stream.
	other, events := openSSE(t, ts.URL+"/v1/stream", map[string]string{"X-API-Key": "client-2"})
	if other.StatusCode != http.StatusOK {
		t.Fatalf("other client stream status = %d", other.StatusCode)
	}
	_ = events
}

func TestWrapFallsThroughToInner(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)
	for _, path := range []string{"/v1/tags", "/tags/A", "/ingest", "/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTeapot {
			t.Fatalf("GET %s = %d, want the inner handler's reply", path, resp.StatusCode)
		}
	}
}

func TestSSEUnversionedAliases(t *testing.T) {
	st := newTestStore(t, StoreConfig{})
	ts := sseTestServer(t, st, nil)
	emitVisible(t, st, tr("A", 1))
	resp, events := openSSE(t, ts.URL+"/tags/A/stream", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unversioned stream status = %d", resp.StatusCode)
	}
	if ev := nextEvent(t, events, "unversioned primer"); epcOf(t, ev) != "A" {
		t.Fatalf("unversioned primer = %+v", ev)
	}
}

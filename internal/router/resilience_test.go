package router

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfprism/internal/ingest"
)

// fakeClock is a settable clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func newTestBreaker(cfg ResilienceConfig) (*breaker, *fakeClock) {
	cfg.defaults()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	met := NewMetrics(clk.t).Shard("s0")
	return newBreaker(cfg, clk.now, met, "s0"), clk
}

// TestBreakerStateMachine walks the full healthy → suspect → open →
// half-open cycle, both the healing and re-tripping probe outcomes.
func TestBreakerStateMachine(t *testing.T) {
	b, clk := newTestBreaker(ResilienceConfig{TripAfter: 3, OpenFor: time.Second})
	if s := b.currentState(); s != stateHealthy {
		t.Fatalf("initial state %d, want healthy", s)
	}
	b.record(outcomeFail, 0)
	if s := b.currentState(); s != stateSuspect {
		t.Fatalf("after 1 failure: state %d, want suspect", s)
	}
	if err := b.acquire(); err != nil {
		t.Fatalf("suspect must still admit requests: %v", err)
	}
	b.record(outcomeFail, 0)
	b.record(outcomeFail, 0)
	if s := b.currentState(); s != stateOpen {
		t.Fatalf("after TripAfter failures: state %d, want open", s)
	}
	if err := b.acquire(); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("open breaker must fail fast, got %v", err)
	}
	// Window elapses: the first acquire becomes the half-open probe,
	// the second still fails fast.
	clk.t = clk.t.Add(2 * time.Second)
	if err := b.acquire(); err != nil {
		t.Fatalf("probe acquire: %v", err)
	}
	if s := b.currentState(); s != stateHalfOpen {
		t.Fatalf("probing state %d, want half-open", s)
	}
	if err := b.acquire(); !errBreakerIs(err) {
		t.Fatalf("second acquire during probe must fail fast, got %v", err)
	}
	// Probe fails: straight back to open with a fresh window.
	b.record(outcomeFail, 0)
	if s := b.currentState(); s != stateOpen {
		t.Fatalf("failed probe: state %d, want open", s)
	}
	// Next window's probe succeeds: fully healed.
	clk.t = clk.t.Add(2 * time.Second)
	if err := b.acquire(); err != nil {
		t.Fatalf("second probe acquire: %v", err)
	}
	b.record(outcomeOK, time.Millisecond)
	if s := b.currentState(); s != stateHealthy {
		t.Fatalf("healed state %d, want healthy", s)
	}
	if err := b.acquire(); err != nil {
		t.Fatalf("healthy acquire: %v", err)
	}
	if got := b.met.State.Load(); got != float64(stateHealthy) {
		t.Fatalf("router_shard_state gauge = %v, want %d", got, stateHealthy)
	}
}

func errBreakerIs(err error) bool { return errors.Is(err, errBreakerOpen) }

// TestBreakerTimeoutRatioTrip: interleaved successes keep the
// consecutive counter low, but a timeout-heavy window still opens the
// breaker.
func TestBreakerTimeoutRatioTrip(t *testing.T) {
	b, _ := newTestBreaker(ResilienceConfig{TripAfter: 100})
	for i := 0; i < 4; i++ {
		b.record(outcomeOK, time.Millisecond)
		b.record(outcomeTimeout, 0)
	}
	if s := b.currentState(); s != stateOpen {
		t.Fatalf("50%% timeouts over %d samples: state %d, want open", 8, s)
	}
}

// TestBreakerRelease: an abandoned half-open probe (client went away)
// frees the probe slot instead of wedging the breaker.
func TestBreakerRelease(t *testing.T) {
	b, clk := newTestBreaker(ResilienceConfig{TripAfter: 1, OpenFor: time.Second})
	b.record(outcomeFail, 0)
	clk.t = clk.t.Add(2 * time.Second)
	if err := b.acquire(); err != nil {
		t.Fatal(err)
	}
	b.release()
	if err := b.acquire(); err != nil {
		t.Fatalf("probe slot must be free after release, got %v", err)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	if d, ok := parseRetryAfter("7", now); !ok || d != 7*time.Second {
		t.Fatalf("delta-seconds: %v %v", d, ok)
	}
	date := now.Add(90 * time.Second).Format(http.TimeFormat)
	if d, ok := parseRetryAfter(date, now); !ok || d != 90*time.Second {
		t.Fatalf("HTTP-date: %v %v", d, ok)
	}
	past := now.Add(-time.Hour).Format(http.TimeFormat)
	if d, ok := parseRetryAfter(past, now); !ok || d != 0 {
		t.Fatalf("past HTTP-date should clamp to 0: %v %v", d, ok)
	}
	for _, bad := range []string{"", "-3", "soon", "12.5"} {
		if _, ok := parseRetryAfter(bad, now); ok {
			t.Fatalf("parseRetryAfter(%q) should fail", bad)
		}
	}
	if got := clampRetryAfter(time.Hour); got != maxRetryAfter {
		t.Fatalf("clamp(1h) = %v, want %v", got, maxRetryAfter)
	}
	if got := clampRetryAfter(-time.Second); got != 0 {
		t.Fatalf("clamp(-1s) = %v, want 0", got)
	}
}

func TestEncodePositions(t *testing.T) {
	lines := []pendingLine{{pos: 17}, {pos: 20}, {pos: 21}}
	if got := encodePositions(lines); got != "17,3,1" {
		t.Fatalf("encodePositions = %q, want 17,3,1", got)
	}
	if got := encodePositions(lines[:1]); got != "17" {
		t.Fatalf("single line = %q, want 17", got)
	}
}

// TestRouterIngestRetriesTransportError: a connection killed mid-reply
// is retried with the same stream identity, so the request still
// succeeds end to end.
func TestRouterIngestRetriesTransportError(t *testing.T) {
	var mu sync.Mutex
	var calls atomic.Int64
	var streams []string
	var positions []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		streams = append(streams, r.Header.Get("X-RFPrism-Stream"))
		positions = append(positions, r.Header.Get("X-RFPrism-Stream-Pos"))
		mu.Unlock()
		if calls.Add(1) == 1 {
			panic(http.ErrAbortHandler) // resets the connection mid-response
		}
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"accepted":2}`))
	}))
	defer srv.Close()

	rt := New(Config{Resilience: ResilienceConfig{RetryBackoff: time.Millisecond}})
	if err := rt.AddShard("s0", srv.URL); err != nil {
		t.Fatal(err)
	}
	w := postNDJSON(t, rt.Handler(), mkLine(t, "A", 1)+"\n"+mkLine(t, "B", 2)+"\n")
	if w.Code != http.StatusAccepted {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("shard saw %d attempts, want 2", n)
	}
	if rt.met.Retries.Load() != 1 {
		t.Fatalf("router_retries_total = %v, want 1", rt.met.Retries.Load())
	}
	// Both attempts must carry identical exactly-once identity — that
	// is what makes the blind re-send safe.
	mu.Lock()
	defer mu.Unlock()
	if streams[0] == "" || streams[0] != streams[1] || positions[0] != positions[1] {
		t.Fatalf("attempts carried different stream identity: %v %v", streams, positions)
	}
	if positions[0] != "1,1" {
		t.Fatalf("positions header %q, want 1,1", positions[0])
	}
}

// TestRouterIngestBreakerFastFail: once a shard's breaker opens, the
// next sub-request fails fast — no HTTP attempt, no dial timeout.
func TestRouterIngestBreakerFastFail(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	rt := New(Config{Resilience: ResilienceConfig{
		Retries: -1, TripAfter: 1, OpenFor: time.Minute,
	}})
	if err := rt.AddShard("s0", srv.URL); err != nil {
		t.Fatal(err)
	}
	srv.Close() // transport errors from here on
	line := mkLine(t, "A", 1) + "\n"
	if w := postNDJSON(t, rt.Handler(), line); w.Code != http.StatusBadGateway {
		t.Fatalf("first post: status %d, want 502", w.Code)
	}
	rt.mu.RLock()
	st := rt.shards["s0"].ctl.currentState()
	rt.mu.RUnlock()
	if st != stateOpen {
		t.Fatalf("breaker state %d, want open", st)
	}
	w := postNDJSON(t, rt.Handler(), line)
	env := decodeEnvelope(t, w)
	if w.Code != http.StatusBadGateway || env.Code != CodeShardUnavailable {
		t.Fatalf("fast-fail: status %d code %q", w.Code, env.Code)
	}
	if rt.met.BreakerFastFail.Load() < 1 {
		t.Fatal("router_breaker_fastfail_total did not move")
	}
	// The readiness aggregate names the breaker state per shard.
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rw := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d, want 503", rw.Code)
	}
	if !strings.Contains(rw.Body.String(), `"breaker":"open"`) {
		t.Fatalf("readyz body misses breaker state: %s", rw.Body.String())
	}
}

// TestRouterScatterDegradesOnBadBodies: a shard answering garbage —
// an oversized error envelope on ingest, truncated JSON on the tags
// scatter — degrades that shard only, never the whole merge.
func TestRouterScatterDegradesOnBadBodies(t *testing.T) {
	// Shard 0 is healthy; shard 1 replies 500 with a 2 MB garbage body
	// on ingest (decoded through the 1 MB LimitReader cap) and a
	// truncated JSON body on /v1/tags.
	good := newStubShard(t)
	good.tags = []string{"E-good"}
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(strings.Repeat("x", 2<<20)))
		default:
			_, _ = w.Write([]byte(`{"tags": ["E-bad"`)) // truncated
		}
	}))
	defer bad.Close()

	rt := New(Config{Resilience: ResilienceConfig{Retries: -1, DisableHedging: true}})
	if err := rt.AddShard("s0", good.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddShard("s1", bad.URL); err != nil {
		t.Fatal(err)
	}

	// Find an EPC owned by the bad shard so ingest crosses it.
	epc := ""
	for i := 0; i < 256; i++ {
		cand := fmt.Sprintf("E%d", i)
		if sh, ok := rt.Owner(cand); ok && sh.ID == "s1" {
			epc = cand
			break
		}
	}
	if epc == "" {
		t.Fatal("no EPC mapped to the bad shard")
	}
	w := postNDJSON(t, rt.Handler(), mkLine(t, epc, 1)+"\n")
	env := decodeEnvelope(t, w)
	if w.Code != http.StatusBadGateway || env.Code != CodeShardUnavailable {
		t.Fatalf("garbage 500 envelope: status %d code %q, want 502 %q", w.Code, env.Code, CodeShardUnavailable)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/tags", nil)
	rw := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("tags status %d, want 200 partial", rw.Code)
	}
	if rw.Header().Get("X-RFPrism-Partial") != "1" {
		t.Fatal("partial header missing")
	}
	body := rw.Body.String()
	if !strings.Contains(body, "E-good") || !strings.Contains(body, `"missingShards":["s1"]`) {
		t.Fatalf("tags body %s", body)
	}
}

// TestRouterHedgedRead: a slow primary answer is beaten by the hedge
// once the shard's latency history makes the hedge delay short.
func TestRouterHedgedRead(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(400 * time.Millisecond) // slow primary
		}
		_ = r
		_, _ = w.Write([]byte(`{"tags":["E1"]}`))
	}))
	defer srv.Close()

	rt := New(Config{ShardTimeout: 2 * time.Second})
	if err := rt.AddShard("s0", srv.URL); err != nil {
		t.Fatal(err)
	}
	rt.mu.RLock()
	ctl := rt.shards["s0"].ctl
	rt.mu.RUnlock()
	// Prime the latency window so hedgeDelay drops to its floor.
	for i := 0; i < minRatioSample; i++ {
		ctl.record(outcomeOK, time.Millisecond)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/tags", nil)
	rw := httptest.NewRecorder()
	t0 := time.Now()
	rt.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("status %d", rw.Code)
	}
	if elapsed := time.Since(t0); elapsed > 300*time.Millisecond {
		t.Fatalf("hedge did not win: answer took %v", elapsed)
	}
	if rt.met.HedgesFired.Load() < 1 || rt.met.HedgesWon.Load() < 1 {
		t.Fatalf("hedge counters fired=%v won=%v, want >=1 each",
			rt.met.HedgesFired.Load(), rt.met.HedgesWon.Load())
	}
}

// TestRouterIngestTooLargeLine pins the router's own typed 413.
func TestRouterIngestTooLargeLine(t *testing.T) {
	rt, _ := testRouter(t, Config{}, 1)
	huge := mkLine(t, "A", 1) + strings.Repeat(" ", ingest.MaxReportLine)
	w := postNDJSON(t, rt.Handler(), huge+"\n")
	env := decodeEnvelope(t, w)
	if w.Code != http.StatusRequestEntityTooLarge || env.Code != "report_too_large" {
		t.Fatalf("status %d code %q, want 413 report_too_large", w.Code, env.Code)
	}
}

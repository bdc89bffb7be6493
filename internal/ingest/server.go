package ingest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"rfprism/internal/api"
)

// MaxReportLine bounds one NDJSON report line (a sim.Reading encodes
// to well under 1 KiB; the margin tolerates vendor extensions). The
// router and the report-file reader apply the same limit, so a line
// one tier accepts is never too large for the next.
const MaxReportLine = 1 << 20

// Server exposes the daemon over HTTP. The API is versioned under /v1:
//
//	POST /v1/ingest      NDJSON reports, one sim.Reading per line
//	GET  /v1/tags        known EPCs
//	GET  /v1/tags/{epc}  buffered results for one tag (?latest=1 for one)
//
// The original unversioned paths (/ingest, /tags, /tags/{epc}) remain
// mounted as aliases answering byte-identical payloads, so pre-/v1
// clients keep working. Operational endpoints are unversioned by
// convention:
//
//	GET  /healthz     liveness: 200 as long as the process serves,
//	                  with the queue/journal/breaker snapshot
//	GET  /readyz      readiness: 503 while draining or while the
//	                  panic circuit breaker is tripped
//	GET  /metrics     Prometheus text format
//
// Liveness and readiness are deliberately distinct: a draining or
// breaker-tripped daemon is still alive (restarting it would lose the
// drain or the journal-only stream) but must be taken out of the load
// balancer rotation — /healthz keeps answering 200 while /readyz
// fails.
//
// Every error response is the uniform JSON envelope
// {"error","code","retry_after_ms"} (ingest errors add accepted/line so
// clients resume from the first unaccepted report). retry_after_ms is 0
// except under backpressure. The only exception is the Go mux's own 405
// (method not allowed) plain-text reply.
//
// Backpressure is explicit: when the window queue is full, ingest
// answers 429 with a jittered Retry-After header (mirrored in
// retry_after_ms) and reports how many lines were accepted before the
// refusal.
type Server struct {
	d     *Daemon
	store TagStore
	mux   *http.ServeMux
	log   *slog.Logger
	// dedup holds the per-stream high-water marks behind the
	// X-RFPrism-Stream exactly-once retry protocol (dedup.go).
	dedup *streamDedup
	// jitter yields uniform [0,1) draws for Retry-After spreading;
	// tests pin it.
	jitter func() float64
}

// TagStore is the query surface GET /v1/tags reads from. RingSink is
// the in-memory implementation; serve.Store is the epoch-swapped
// snapshot store that replaces it in the daemon.
type TagStore interface {
	Latest(epc string) (TagResult, bool)
	History(epc string) []TagResult
	EPCs() []string
}

// EpochStore is implemented by stores with snapshot generations: reads
// then advertise the epoch in the X-RFPrism-Epoch header so clients
// can start a since=<epoch> subscription without a race.
type EpochStore interface {
	Epoch() uint64
}

// TagWaiter is implemented by stores that support long-poll: WaitTag
// blocks until the tag has a result newer than since, wait elapses, or
// ctx ends. ok reports a change; epoch is the tag's epoch either way.
type TagWaiter interface {
	WaitTag(ctx context.Context, epc string, since uint64, wait time.Duration) (TagResult, uint64, bool)
}

// NewServer wires a daemon and its query store. store may be nil when
// the deployment has no query endpoint (pure NDJSON export). Request
// logs go to the daemon's logger.
func NewServer(d *Daemon, store TagStore) *Server {
	if rs, ok := store.(*RingSink); ok && rs == nil {
		store = nil // tolerate a typed-nil ring from optional wiring
	}
	s := &Server{d: d, store: store, mux: http.NewServeMux(), log: d.Logger(),
		dedup: newStreamDedup(d.cfg.Now), jitter: rand.Float64}
	for _, prefix := range []string{"/v1", ""} {
		// The unversioned aliases serve byte-identical bodies through
		// the same handlers, but advertise their successor: responses
		// carry a Deprecation header and a Link to the /v1 path.
		wrap := func(h http.HandlerFunc) http.HandlerFunc { return h }
		if prefix == "" {
			wrap = api.Deprecated
		}
		s.mux.HandleFunc("POST "+prefix+"/ingest", wrap(s.handleIngest))
		s.mux.HandleFunc("GET "+prefix+"/tags", wrap(s.handleTags))
		s.mux.HandleFunc("GET "+prefix+"/tags/{epc}", wrap(s.handleTag))
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Catch-all: unknown paths get the JSON envelope, not the mux's
	// plain-text 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no such endpoint: %s", r.URL.Path), 0)
	})
	return s
}

// Handler returns the routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Error codes of the uniform envelope.
const (
	CodeBadReport      = "bad_report"       // malformed or invalid report line
	CodeBackpressure   = "backpressure"     // queue full, retry after the advertised pause
	CodeDraining       = "draining"         // daemon is shutting down
	CodeNotFound       = "not_found"        // unknown endpoint or tag
	CodeNoRing         = "no_query_ring"    // daemon runs without a query ring
	CodeBadParam       = "bad_param"        // malformed query parameter
	CodeReportTooLarge = "report_too_large" // one NDJSON line exceeds MaxReportLine (413)
)

// apiError is the uniform JSON error envelope (the canonical wire
// struct; see internal/api). Every non-2xx response from every
// endpoint carries it; "retry_after_ms" is non-zero only under
// backpressure. Ingest errors add "accepted"/"line" so clients resume
// from the first unaccepted report.
type apiError = api.Error

// ingestReply is the JSON body of a successful ingest.
type ingestReply = api.IngestReply

func writeJSON(w http.ResponseWriter, status int, v any) {
	api.WriteJSON(w, status, v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	api.WriteError(w, status, code, msg, retryAfter)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), MaxReportLine)
	accepted, line := 0, 0
	fail := func(status int, code string, retryAfter time.Duration, msg string) {
		s.log.Debug("ingest refused", "path", r.URL.Path, "code", code,
			"accepted", accepted, "line", line, "err", msg)
		writeJSON(w, status, apiError{
			Schema: api.Version,
			Error:  msg, Code: code, RetryAfterMS: retryAfter.Milliseconds(),
			Accepted: accepted, Line: line,
		})
	}
	// Stream dedup (dedup.go): when the request names its stream and
	// stamps line positions, lines at or below the stream's high-water
	// mark were offered by an earlier delivery — count them accepted
	// without re-offering, so transport retries are exactly-once.
	streamID := r.Header.Get(HeaderStream)
	if len(streamID) > MaxStreamID {
		fail(http.StatusBadRequest, CodeBadParam, 0, "stream id too long")
		return
	}
	var pos *StreamPos
	if streamID != "" {
		pos = &StreamPos{base: 1} // default: positions are line order
		if raw := r.Header.Get(HeaderStreamPos); raw != "" {
			var err error
			if pos, err = ParseStreamPos(raw); err != nil {
				fail(http.StatusBadRequest, CodeBadParam, 0, err.Error())
				return
			}
		}
	}
	idx := 0 // non-blank line index, drives position lookup
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		linePos := uint64(0)
		if pos != nil {
			p, err := pos.At(idx)
			if err != nil {
				fail(http.StatusBadRequest, CodeBadParam, 0, err.Error())
				return
			}
			linePos = p
		}
		idx++
		rd, err := decodeReading(raw)
		if err != nil {
			fail(http.StatusBadRequest, CodeBadReport, 0, fmt.Sprintf("line %d: %v", line, err))
			return
		}
		dup := false
		if linePos != 0 {
			dup, err = s.dedup.offerOnce(streamID, linePos, func() error { return s.d.Offer(rd) })
		} else {
			err = s.d.Offer(rd)
		}
		switch {
		case dup:
			// Already offered by an earlier delivery of this stream: a
			// retried sub-batch, a resume overshoot. Skip, still accept.
			accepted++
			s.d.Metrics().ReportsDeduped.Inc()
		case err == nil:
			accepted++
		case errors.Is(err, ErrBusy):
			secs := retryAfterSeconds(s.d.RetryAfter(), s.jitter())
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			fail(http.StatusTooManyRequests, CodeBackpressure, time.Duration(secs)*time.Second, err.Error())
			return
		case errors.Is(err, ErrDraining):
			fail(http.StatusServiceUnavailable, CodeDraining, 0, err.Error())
			return
		default:
			fail(http.StatusBadRequest, CodeBadReport, 0, fmt.Sprintf("line %d: %v", line, err))
			return
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// Typed 413: the offending line starts past everything
			// accepted so far; a client resumes after shrinking it.
			// "line" is the resume position (the oversized line
			// itself), matching the router's envelope.
			line++
			fail(http.StatusRequestEntityTooLarge, CodeReportTooLarge, 0,
				fmt.Sprintf("line %d exceeds the %d-byte report line limit", line, MaxReportLine))
			return
		}
		fail(http.StatusBadRequest, CodeBadReport, 0, err.Error())
		return
	}
	s.log.Debug("ingest accepted", "path", r.URL.Path, "accepted", accepted)
	writeJSON(w, http.StatusAccepted, ingestReply{Schema: api.Version, Accepted: accepted})
}

// setEpochHeader advertises the store's snapshot epoch so a client can
// open a since=<epoch> subscription with no gap after a plain read.
func (s *Server) setEpochHeader(w http.ResponseWriter) {
	if es, ok := s.store.(EpochStore); ok {
		w.Header().Set("X-RFPrism-Epoch", strconv.FormatUint(es.Epoch(), 10))
	}
}

// PageEPCs applies ?limit=&cursor= pagination to a sorted EPC list:
// the page starts strictly after cursor (the last EPC of the previous
// page) and holds at most limit entries; next is the cursor for the
// following page ("" when exhausted). limit <= 0 means everything
// after the cursor. Shared with the router so both tiers page
// identically.
func PageEPCs(epcs []string, limit int, cursor string) (page []string, next string) {
	start := 0
	if cursor != "" {
		start = sort.SearchStrings(epcs, cursor)
		if start < len(epcs) && epcs[start] == cursor {
			start++
		}
	}
	end := len(epcs)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	page = epcs[start:end]
	if end < len(epcs) && len(page) > 0 {
		next = page[len(page)-1]
	}
	return page, next
}

func (s *Server) handleTags(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeError(w, http.StatusNotFound, CodeNoRing, "no query ring configured", 0)
		return
	}
	epcs := s.store.EPCs()
	s.setEpochHeader(w)
	q := r.URL.Query()
	cursor := api.Cursor(q)
	if q.Get("limit") == "" && cursor == "" {
		// Unpaged shape: the pre-pagination field set plus the schema
		// stamp.
		s.log.Debug("tags listed", "path", r.URL.Path, "count", len(epcs))
		writeJSON(w, http.StatusOK, api.TagList{Schema: api.Version, Tags: epcs})
		return
	}
	limit, perr := api.ParseLimit(q)
	if perr != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadParam, perr.Error(), 0)
		return
	}
	page, next := PageEPCs(epcs, limit, cursor)
	total := len(epcs)
	reply := api.TagList{Schema: api.Version, Tags: page, Count: &total, Next: next}
	s.log.Debug("tags page served", "path", r.URL.Path, "page", len(page), "count", total)
	writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleTag(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeError(w, http.StatusNotFound, CodeNoRing, "no query ring configured", 0)
		return
	}
	epc := r.PathValue("epc")
	q := r.URL.Query()
	if waitRaw := q.Get("wait"); waitRaw != "" {
		s.handleTagWait(w, r, epc, waitRaw)
		return
	}
	if q.Get("latest") != "" {
		res, ok := s.store.Latest(epc)
		if !ok {
			s.log.Debug("tag query missed", "path", r.URL.Path, "epc", epc)
			s.writeError(w, http.StatusNotFound, CodeNotFound, "unknown tag", 0)
			return
		}
		s.setEpochHeader(w)
		s.log.Debug("tag latest served", "path", r.URL.Path, "epc", epc)
		writeJSON(w, http.StatusOK, res)
		return
	}
	history := s.store.History(epc)
	if len(history) == 0 {
		s.log.Debug("tag query missed", "path", r.URL.Path, "epc", epc)
		s.writeError(w, http.StatusNotFound, CodeNotFound, "unknown tag", 0)
		return
	}
	s.setEpochHeader(w)
	s.log.Debug("tag history served", "path", r.URL.Path, "epc", epc, "results", len(history))
	writeJSON(w, http.StatusOK, api.TagHistory{Schema: api.Version, EPC: epc, Results: history})
}

// tagWaitReply is the long-poll response body. result is present only
// when changed.
type tagWaitReply = api.WaitReply

// handleTagWait serves GET /v1/tags/{epc}?wait=30s&since=<epoch>: it
// holds the request until the tag changes past since or wait elapses,
// so a poller fleet costs one parked request each instead of a poll
// storm. Requires a TagWaiter store (the serve tier).
func (s *Server) handleTagWait(w http.ResponseWriter, r *http.Request, epc, waitRaw string) {
	tw, ok := s.store.(TagWaiter)
	if !ok {
		s.writeError(w, http.StatusBadRequest, CodeBadParam, "long-poll not supported by this store", 0)
		return
	}
	wait, perr := api.ParseWait(waitRaw)
	if perr != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadParam, perr.Error(), 0)
		return
	}
	since, perr := api.ParseSince(r.URL.Query())
	if perr != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadParam, perr.Error(), 0)
		return
	}
	res, epoch, changed := tw.WaitTag(r.Context(), epc, since, wait)
	w.Header().Set("X-RFPrism-Epoch", strconv.FormatUint(epoch, 10))
	reply := tagWaitReply{Schema: api.Version, Epoch: epoch, Changed: changed}
	if changed {
		reply.Result = &res
	}
	s.log.Debug("long-poll answered", "path", r.URL.Path, "epc", epc,
		"since", since, "epoch", epoch, "changed", changed)
	writeJSON(w, http.StatusOK, reply)
}

// retryAfterSeconds converts the advertised backpressure pause into a
// jittered integer Retry-After value: uniform in [0.5, 1.5]× the base,
// floored at 1 s. Without the spread, every client refused in the same
// burst would sleep the same pause and stampede back in lockstep.
func retryAfterSeconds(base time.Duration, u float64) int {
	secs := base.Seconds() * (0.5 + u)
	n := int(math.Ceil(secs))
	if n < 1 {
		n = 1
	}
	return n
}

// healthState names the daemon's condition for health bodies.
func healthState(g Gauges) (state string, ready bool) {
	switch {
	case g.Draining:
		return "draining", false
	case g.BreakerTripped:
		return "breaker-tripped", false
	default:
		return "ok", true
	}
}

// handleHealthz is liveness: it answers 200 whenever the process can
// serve at all — a draining or breaker-tripped daemon must NOT be
// restarted by an orchestrator, only depublished (that is /readyz).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	g := s.d.Gauges()
	state, ready := healthState(g)
	body := map[string]any{
		"status":           state,
		"ready":            ready,
		"queueDepth":       g.QueueDepth,
		"queueCapacity":    g.QueueCap,
		"openSessions":     g.OpenSessions,
		"bufferedReadings": g.BufferedReadings,
	}
	if g.JournalEnabled {
		body["journal"] = map[string]any{
			"nextSeq":   g.JournalNextSeq,
			"syncedSeq": g.JournalSyncedSeq,
			"segments":  g.JournalSegments,
		}
	}
	if rec := s.d.Recovery(); rec.Ran {
		body["recovery"] = map[string]any{
			"replayedReports": rec.Replay.Reports,
			"replayedTo":      rec.ReplayedTo,
			"suppressed":      rec.Suppressed,
			"requeued":        rec.Requeued,
			"openSessions":    rec.OpenSessions,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is readiness: 503 takes the instance out of rotation
// while it drains or sheds under a tripped panic breaker.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	g := s.d.Gauges()
	state, ready := healthState(g)
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Schema: api.Version, Error: state, Code: "not_ready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": state, "ready": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.d.Metrics().WriteText(w, s.d.cfg.Now(), s.d.Gauges())
}

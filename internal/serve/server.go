package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rfprism/internal/api"
)

// Server adds the streaming read surface on top of an inner /v1 API
// handler:
//
//	GET /v1/tags/{epc}/stream  SSE: every new result for one tag
//	GET /v1/stream             SSE firehose (?prefix= narrows by EPC prefix)
//
// (also mounted unversioned, matching the rest of the surface). Every
// other path falls through to the inner handler, so the plain tag API
// keeps a single implementation. Wrap also applies the per-client
// limiter across the whole surface.
//
// SSE wire contract: events carry `id: <epoch>` so clients reconnect
// with Last-Event-ID (or ?since=<epoch>) and are replayed everything
// newer from the snapshot's retained window. A client further behind
// than the window gets one `event: resync` (it must re-GET the full
// state) before live results resume. A consumer that cannot keep up is
// evicted: the stream ends with `event: dropped` and a typed reason.
type Server struct {
	store     *Store
	lim       *Limiter
	log       *slog.Logger
	heartbeat time.Duration

	streams atomic.Int64 // live SSE streams
}

// NewServer wires the streaming surface. lim may be nil (no limits);
// log may be nil (discards).
func NewServer(store *Store, lim *Limiter, log *slog.Logger) *Server {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Server{store: store, lim: lim, log: log, heartbeat: 15 * time.Second}
}

// SetHeartbeat overrides the SSE keep-alive comment interval (tests).
func (s *Server) SetHeartbeat(d time.Duration) {
	if d > 0 {
		s.heartbeat = d
	}
}

// Streams returns the number of live SSE streams.
func (s *Server) Streams() int64 { return s.streams.Load() }

// Wrap mounts the stream endpoints in front of inner (the ingest API
// handler) and applies the limiter to the combined surface.
func (s *Server) Wrap(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	for _, prefix := range []string{"/v1", ""} {
		// Unversioned aliases share the handlers but advertise their
		// /v1 successor (Deprecation + Link headers).
		wrap := func(h http.HandlerFunc) http.HandlerFunc { return h }
		if prefix == "" {
			wrap = api.Deprecated
		}
		mux.HandleFunc("GET "+prefix+"/tags/{epc}/stream", wrap(s.handleTagStream))
		mux.HandleFunc("GET "+prefix+"/stream", wrap(s.handleFirehose))
	}
	mux.Handle("/", inner)
	return s.lim.Middleware(mux)
}

func (s *Server) handleTagStream(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, Filter{EPC: r.PathValue("epc")})
}

func (s *Server) handleFirehose(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, Filter{Prefix: r.URL.Query().Get("prefix")})
}

// parseSince resolves the client's resume epoch: the standard SSE
// Last-Event-ID reconnect header wins, else ?since=. ok reports
// whether the client asked to resume at all (a fresh subscriber
// starts live; it is not replayed history it never saw).
func parseSince(r *http.Request) (since uint64, ok bool) {
	return api.SSEResume(r)
}

func (s *Server) stream(w http.ResponseWriter, r *http.Request, f Filter) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		api.WriteError(w, http.StatusInternalServerError, "no_stream",
			"streaming unsupported by connection", 0)
		return
	}
	key := ClientKey(r)
	if !s.lim.AcquireStream(key) {
		writeThrottled(w, CodeStreamQuota, "concurrent stream quota exceeded", time.Second)
		return
	}
	defer s.lim.ReleaseStream(key)
	s.streams.Add(1)
	defer s.streams.Add(-1)

	since, resuming := parseSince(r)
	// Subscribe before reading the snapshot: Publish runs after the
	// swap, so everything missing from this snapshot still arrives on
	// the channel, and everything at or below its epoch is served from
	// the catch-up below — no gap, no matter when swaps land.
	sub := s.store.Hub().Subscribe(f, s.store.cfg.SubscriberBuffer)
	defer s.store.Hub().Unsubscribe(sub)
	snap := s.store.Snapshot()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-RFPrism-Epoch", strconv.FormatUint(snap.Epoch(), 10))
	w.WriteHeader(http.StatusOK)

	sw := &sseWriter{w: w}
	if resuming {
		batches, ok := snap.Since(since)
		if !ok {
			// The client is behind the retained window: tell it to
			// re-GET the full state, then continue live.
			sw.event(snap.Epoch(), "resync", fmt.Appendf(nil, `{"epoch":%d}`, snap.Epoch()))
		}
		for _, b := range batches {
			for _, res := range b.Results {
				if f.matches(res.EPC) {
					sw.result(b.Epoch, res)
				}
			}
		}
	} else if f.EPC != "" {
		// A fresh per-tag subscriber gets the current state up front so
		// it need not race a separate GET against the stream start.
		if res, epoch, ok := snap.Latest(f.EPC); ok {
			sw.result(epoch, res)
		}
	}
	// Everything at or below the snapshot's epoch was served by the
	// catch-up above (or predates a fresh subscriber); everything newer
	// goes out live. The filter is against this fixed epoch, never the
	// last one sent: every result of a multi-result swap shares one
	// epoch, so a running cursor would drop all but the first.
	from := snap.Epoch()
	last := from // id of the final "dropped" frame
	deliver := func(ev Event) {
		if ev.Epoch > from && f.matches(ev.Result.EPC) {
			sw.result(ev.Epoch, ev.Result)
			last = max(last, ev.Epoch)
		}
	}
	flusher.Flush()
	if sw.err != nil {
		return
	}
	s.log.Debug("stream open", "path", r.URL.Path, "epc", f.EPC, "prefix", f.Prefix,
		"since", since, "epoch", from)

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				reason := sub.Dropped()
				sw.event(last, "dropped", fmt.Appendf(nil, `{"reason":%q}`, reason.String()))
				flusher.Flush()
				s.log.Debug("stream dropped", "path", r.URL.Path, "reason", reason.String())
				return
			}
			deliver(ev)
			// Drain whatever else is queued before flushing once —
			// under a burst this coalesces dozens of events per write.
			for drained := false; !drained; {
				select {
				case ev, ok := <-sub.C:
					if !ok {
						reason := sub.Dropped()
						sw.event(last, "dropped", fmt.Appendf(nil, `{"reason":%q}`, reason.String()))
						flusher.Flush()
						return
					}
					deliver(ev)
				default:
					drained = true
				}
			}
			flusher.Flush()
			if sw.err != nil {
				return
			}
		case <-hb.C:
			sw.comment("hb")
			flusher.Flush()
			if sw.err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// sseWriter renders Server-Sent Events frames, remembering the first
// write error so the stream loop can stop cleanly.
type sseWriter struct {
	w   io.Writer
	err error
}

func (s *sseWriter) result(epoch uint64, res any) {
	data, err := json.Marshal(res)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.event(epoch, "result", data)
}

func (s *sseWriter) event(id uint64, event string, data []byte) {
	if s.err != nil {
		return
	}
	frame := api.Frame{ID: id, HasID: true, Event: event, Data: data}
	if _, err := s.w.Write(frame.Bytes()); err != nil {
		s.err = err
	}
}

func (s *sseWriter) comment(text string) {
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(api.Comment(text)); err != nil {
		s.err = err
	}
}

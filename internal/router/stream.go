package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"rfprism/internal/api"
	"rfprism/internal/ingest"
	"rfprism/internal/serve"
)

// SSE relay and merge.
//
// The router fronts the shards' serving tier for subscriptions too:
//
//	GET /v1/tags/{epc}/stream  relayed from the EPC's owning shard
//	GET /v1/stream             every shard's firehose merged into one
//
// Per-EPC streams have exactly one possible source (the ring owner),
// so the relay is a transparent byte pipe: frames, epochs and the
// Last-Event-ID resume contract pass through untouched. The firehose
// merge interleaves whole SSE frames from every shard; epochs are
// per-shard there, so the merged stream is a live tail without a
// cross-shard resume cursor (DESIGN.md §14).
//
// Degradation follows the scatter-gather contract: shards that cannot
// be reached when the stream opens set X-RFPrism-Partial and are
// announced with one `event: partial` frame each; a shard dying
// mid-stream emits the same frame while the surviving shards' streams
// stay open.

// streamConnectTimeout caps how long the firehose waits for one
// shard's stream to start before declaring it missing.
const streamConnectTimeout = 5 * time.Second

// partialFrame renders the `event: partial` degradation frame for one
// shard.
func partialFrame(shardID string) []byte {
	data, _ := json.Marshal(map[string]string{"shard": shardID})
	return api.Frame{Event: "partial", Data: data}.Bytes()
}

// acquireStream claims a per-client stream slot when a limiter is
// wired; it replies 429 and returns false when the quota is exhausted.
func (rt *Router) acquireStream(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	lim := rt.cfg.Limiter
	if lim == nil {
		return func() {}, true
	}
	key := serve.ClientKey(r)
	if !lim.AcquireStream(key) {
		rt.met.StreamErr.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Schema: api.Version,
			Error:  "concurrent stream quota exceeded", Code: serve.CodeStreamQuota,
			RetryAfterMS: 1000,
		})
		return nil, false
	}
	return func() { lim.ReleaseStream(key) }, true
}

// handleTagStream relays GET /v1/tags/{epc}/stream from the owning
// shard, byte for byte, flushing each read so events propagate live.
func (rt *Router) handleTagStream(w http.ResponseWriter, r *http.Request) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		rt.writeError(w, http.StatusInternalServerError, "no_stream", "streaming unsupported by connection", 0)
		return
	}
	release, ok := rt.acquireStream(w, r)
	if !ok {
		return
	}
	defer release()
	epc := r.PathValue("epc")
	owner, _ := rt.snapshot()
	sh, found := owner(epc)
	if !found {
		rt.met.StreamErr.Inc()
		rt.writeError(w, http.StatusServiceUnavailable, CodeNoShards, "no shards in the ring", 0)
		return
	}
	path := sh.BaseURL + "/v1/tags/" + epc + "/stream"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, path, nil)
	if err != nil {
		rt.met.StreamErr.Inc()
		rt.writeError(w, http.StatusInternalServerError, CodeShardUnavailable, err.Error(), 0)
		return
	}
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		req.Header.Set("Last-Event-ID", id)
	}
	// An open breaker fails the subscription fast instead of burning
	// the dial timeout against a partitioned shard.
	if err := sh.ctl.acquire(); err != nil {
		rt.met.BreakerFastFail.Inc()
		rt.met.StreamErr.Inc()
		writeJSON(w, http.StatusBadGateway, apiError{
			Schema: api.Version,
			Error:  fmt.Sprintf("shard %s: %v", sh.ID, err),
			Code:   CodeShardUnavailable, Shard: sh.ID,
		})
		return
	}
	sh.met.Requests.Inc()
	start := rt.cfg.Now()
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		sh.met.Errors.Inc()
		sh.met.Up.Set(0)
		rt.recordOutcome(sh, r.Context(), err, start)
		rt.met.StreamErr.Inc()
		writeJSON(w, http.StatusBadGateway, apiError{
			Schema: api.Version,
			Error:  fmt.Sprintf("shard %s: %v", sh.ID, err),
			Code:   CodeShardUnavailable, Shard: sh.ID,
		})
		return
	}
	defer resp.Body.Close()
	sh.met.Up.Set(1)
	sh.ctl.record(outcomeOK, rt.cfg.Now().Sub(start))
	for _, h := range []string{"Content-Type", "Cache-Control", "X-RFPrism-Epoch", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		// Relay the shard's envelope (quota refusal, unknown store, …).
		rt.met.StreamErr.Inc()
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		_, _ = w.Write(buf[:n])
		return
	}
	// Push the headers out now: the first shard frame may be a long
	// heartbeat away, and the client needs the stream to be open.
	flusher.Flush()
	rt.met.StreamOK.Inc()
	rt.met.Streams.Add(1)
	defer rt.met.Streams.Add(-1)
	rt.log.Debug("stream relay open", "shard", sh.ID, "epc", epc)

	buf := make([]byte, 16*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			flusher.Flush()
		}
		if err != nil {
			if r.Context().Err() == nil {
				// The shard died under the relay: tell the client which
				// source vanished instead of silently ending the stream.
				sh.met.Up.Set(0)
				rt.met.StreamPartial.Inc()
				_, _ = w.Write(partialFrame(sh.ID))
				flusher.Flush()
				rt.log.Debug("stream relay lost shard", "shard", sh.ID, "epc", epc, "err", err)
			}
			return
		}
	}
}

// shardStream is one shard's live firehose under the merge.
type shardStream struct {
	sh   *shard
	resp *http.Response
	err  error
}

// handleFirehose merges every shard's /v1/stream into one SSE stream.
func (rt *Router) handleFirehose(w http.ResponseWriter, r *http.Request) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		rt.writeError(w, http.StatusInternalServerError, "no_stream", "streaming unsupported by connection", 0)
		return
	}
	release, ok := rt.acquireStream(w, r)
	if !ok {
		return
	}
	defer release()
	_, all := rt.snapshot()
	if len(all) == 0 {
		rt.met.StreamErr.Inc()
		rt.writeError(w, http.StatusServiceUnavailable, CodeNoShards, "no shards in the ring", 0)
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	// Connect to every shard in parallel, bounding the header wait so a
	// dead shard degrades the stream instead of stalling its start.
	conns := make([]shardStream, len(all))
	var wg sync.WaitGroup
	for i, sh := range all {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			conns[i] = rt.openShardStream(ctx, sh, r.URL.RawQuery)
		}(i, sh)
	}
	wg.Wait()

	var live []shardStream
	var missing []*shard
	for _, c := range conns {
		if c.err != nil {
			missing = append(missing, c.sh)
			continue
		}
		live = append(live, c)
	}
	defer func() {
		for _, c := range live {
			c.resp.Body.Close()
		}
	}()
	if len(live) == 0 {
		rt.met.StreamErr.Inc()
		rt.writeError(w, http.StatusServiceUnavailable, CodeAllShardsDown, "every shard refused its stream", 0)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	if len(missing) > 0 {
		h.Set("X-RFPrism-Partial", "1")
		rt.met.StreamPartial.Inc()
	} else {
		rt.met.StreamOK.Inc()
	}
	w.WriteHeader(http.StatusOK)
	for _, sh := range missing {
		_, _ = w.Write(partialFrame(sh.ID))
	}
	flusher.Flush()
	rt.met.Streams.Add(1)
	defer rt.met.Streams.Add(-1)
	rt.log.Debug("firehose open", "live", len(live), "missing", len(missing))

	// Readers push whole SSE frames; the single writer interleaves
	// them. A shard dying mid-merge contributes one final partial
	// frame; the merge itself survives until the client goes away or
	// the last shard does.
	frames := make(chan []byte, 256)
	var readers sync.WaitGroup
	for _, c := range live {
		readers.Add(1)
		go func(c shardStream) {
			defer readers.Done()
			sc := bufio.NewScanner(c.resp.Body)
			sc.Buffer(make([]byte, 0, 16*1024), ingest.MaxReportLine)
			sc.Split(scanSSEFrame)
			for sc.Scan() {
				frame := append([]byte(nil), sc.Bytes()...)
				select {
				case frames <- frame:
				case <-ctx.Done():
					return
				}
			}
			if ctx.Err() == nil {
				c.sh.met.Up.Set(0)
				rt.met.StreamPartial.Inc()
				select {
				case frames <- partialFrame(c.sh.ID):
				case <-ctx.Done():
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		readers.Wait()
		close(done)
	}()

	for {
		select {
		case frame := <-frames:
			if _, err := w.Write(frame); err != nil {
				return
			}
			// Coalesce any backlog into this flush.
			for drained := false; !drained; {
				select {
				case more := <-frames:
					if _, err := w.Write(more); err != nil {
						return
					}
				default:
					drained = true
				}
			}
			flusher.Flush()
		case <-done:
			// Drain the final frames (each dead shard's partial marker).
			for {
				select {
				case frame := <-frames:
					_, _ = w.Write(frame)
				default:
					flusher.Flush()
					return
				}
			}
		case <-ctx.Done():
			return
		}
	}
}

// openShardStream starts one shard's firehose, bounding only the wait
// for response headers — the body is the live stream.
func (rt *Router) openShardStream(ctx context.Context, sh *shard, rawQuery string) shardStream {
	out := shardStream{sh: sh}
	path := sh.BaseURL + "/v1/stream"
	if rawQuery != "" {
		path += "?" + rawQuery
	}
	if err := sh.ctl.acquire(); err != nil {
		rt.met.BreakerFastFail.Inc()
		out.err = fmt.Errorf("shard %s: %w", sh.ID, err)
		return out
	}
	sh.met.Requests.Inc()
	start := rt.cfg.Now()
	connCtx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(connCtx, http.MethodGet, path, nil)
	if err != nil {
		cancel()
		out.err = err
		return out
	}
	type result struct {
		resp *http.Response
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := rt.cfg.Client.Do(req)
		ch <- result{resp, err}
	}()
	t := time.NewTimer(streamConnectTimeout)
	defer t.Stop()
	select {
	case res := <-ch:
		if res.err != nil {
			cancel()
			sh.met.Errors.Inc()
			sh.met.Up.Set(0)
			rt.recordOutcome(sh, ctx, res.err, start)
			out.err = res.err
			return out
		}
		if res.resp.StatusCode != http.StatusOK {
			res.resp.Body.Close()
			cancel()
			sh.met.Errors.Inc()
			sh.ctl.record(outcomeOK, rt.cfg.Now().Sub(start))
			out.err = fmt.Errorf("shard %s: stream status %d", sh.ID, res.resp.StatusCode)
			return out
		}
		sh.met.Up.Set(1)
		sh.ctl.record(outcomeOK, rt.cfg.Now().Sub(start))
		out.resp = res.resp
		// cancel is abandoned deliberately: the stream must outlive this
		// call, and the parent ctx still ends it. Wrap the body so the
		// context is released when the stream closes.
		out.resp.Body = &cancelOnClose{ReadCloser: out.resp.Body, cancel: cancel}
		return out
	case <-t.C:
		cancel()
		<-ch // let the dial goroutine finish
		sh.met.Errors.Inc()
		sh.met.Up.Set(0)
		if ctx.Err() == nil {
			sh.ctl.record(outcomeTimeout, rt.cfg.Now().Sub(start))
		} else {
			sh.ctl.release()
		}
		out.err = fmt.Errorf("shard %s: stream connect timed out", sh.ID)
		return out
	}
}

// cancelOnClose releases a request's context cancel when its body is
// closed, so abandoned shard streams do not leak contexts.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	c.cancel()
	return c.ReadCloser.Close()
}

// scanSSEFrame is a bufio.SplitFunc yielding whole SSE frames (through
// the terminating blank line), so merged shard frames never interleave
// mid-event.
func scanSSEFrame(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.Index(data, []byte("\n\n")); i >= 0 {
		return i + 2, data[:i+2], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

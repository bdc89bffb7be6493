package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfprism"
	"rfprism/internal/ingest"
)

// Traced-run probes around the program's public seams. Each records
// at a layer boundary from outside the program: the timing wrapper
// around ingest.Processor sees a window arrive from the daemon's queue
// (handoff) and its result leave the solver pool (processed); the
// interposer times the router's sub-requests to the shards.

type hopTimes struct{ handoff, processed time.Time }

// timedProc wraps a shard's Processor and stamps every window's
// handoff and processed times, keyed by (EPC, per-EPC window number) —
// the same key the result frames carry.
type timedProc struct {
	inner ingest.Processor

	mu   sync.Mutex
	seqs map[string]int
	at   map[winKey]hopTimes
}

// ProcessStream implements ingest.Processor.
func (tp *timedProc) ProcessStream(ctx context.Context, in <-chan rfprism.Window) <-chan rfprism.WindowResult {
	mid := make(chan rfprism.Window)
	// keys holds the windows between handoff and result; its size is
	// far above what the daemon's queue and pool can hold in flight,
	// so stamping never blocks the handoff.
	keys := make(chan winKey, 1<<16)
	go func() {
		defer close(mid)
		for {
			var w rfprism.Window
			var ok bool
			select {
			case w, ok = <-in:
				if !ok {
					return
				}
			case <-ctx.Done():
				return
			}
			now := time.Now()
			tp.mu.Lock()
			k := winKey{w.Tag, tp.seqs[w.Tag]}
			tp.seqs[w.Tag]++
			tp.at[k] = hopTimes{handoff: now}
			tp.mu.Unlock()
			keys <- k
			select {
			case mid <- w:
			case <-ctx.Done():
				return
			}
		}
	}()
	res := tp.inner.ProcessStream(ctx, mid)
	out := make(chan rfprism.WindowResult)
	go func() {
		defer close(out)
		for r := range res {
			now := time.Now()
			// ProcessStream preserves arrival order, so results pair
			// with keys first in, first out.
			k := <-keys
			tp.mu.Lock()
			h := tp.at[k]
			h.processed = now
			tp.at[k] = h
			tp.mu.Unlock()
			select {
			case out <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

func (tp *timedProc) lookup(k winKey) (hopTimes, bool) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	h, ok := tp.at[k]
	return h, ok && !h.processed.IsZero()
}

// interposer is a pass-through RoundTripper on the router's shard
// client that times ingest sub-requests.
type interposer struct {
	base   http.RoundTripper
	active *atomic.Bool
	n      atomic.Int64

	mu   sync.Mutex
	post *dist
}

func (ip *interposer) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/ingest") {
		return ip.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := ip.base.RoundTrip(req)
	ip.n.Add(1)
	if ip.active.Load() {
		ip.mu.Lock()
		ip.post.addDur(time.Since(t0))
		ip.mu.Unlock()
	}
	return resp, err
}

// hop splits one measured window's freshness into its three hops:
// due time of the POST carrying the closing report → handoff to the
// solver pool, handoff → result, result → SSE frame receipt. They add up to the freshness by
// construction; hopErrMax records the largest rounding gap.
func (r *svcRun) hop(w offWindow, fr frameRec, fresh time.Duration) {
	var h hopTimes
	found := false
	for _, tp := range r.cl.procs {
		if h, found = tp.lookup(w.key); found {
			break
		}
	}
	if !found {
		return
	}
	handoff := h.handoff.Sub(r.base.Add(w.due))
	process := h.processed.Sub(h.handoff)
	frame := fr.at.Sub(h.processed)
	r.handoff.addDur(handoff)
	r.process.addDur(process)
	r.frame.addDur(frame)
	row := hopRow{EPC: w.key.epc, Seq: w.key.seq, HandoffMS: ms(handoff), ProcessMS: ms(process), FrameMS: ms(frame), FreshMS: ms(fresh)}
	r.hopErrMax = math.Max(r.hopErrMax, math.Abs(row.HandoffMS+row.ProcessMS+row.FrameMS-row.FreshMS))
	r.hops = append(r.hops, row)
}

// writeHops saves the per-window hop table of a traced pass as NDJSON
// under .bench_build/hops.
func (r *svcRun) writeHops(name string, seed int64) error {
	dir := filepath.Join(".bench_build", "hops")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", name, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, h := range r.hops {
		if err := enc.Encode(h); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

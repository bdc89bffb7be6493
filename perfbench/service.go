package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfprism"
	"rfprism/internal/api"
	"rfprism/internal/exp"
	"rfprism/internal/ingest"
	"rfprism/internal/rf"
	"rfprism/internal/router"
	"rfprism/internal/sim"
)

// The service workloads drive a 2-shard router cluster — journaled
// rfprismd shards, each solving with a calibrated rfprism.System with
// WithWarmStart and WithSolveCache — through the router's HTTP surface
// on a loopback listener: one open-loop ingest connection, one read
// connection, and one SSE subscription per tag on
// /v1/tags/{epc}/stream that measures freshness.
//
// Freshness is not read from the /v1/stream firehose: it delivers only
// the first result of a snapshot swap that carries several (its live
// loop drops events whose epoch equals the last one sent), and windows
// that close at nearly the same time share swaps, so some windows
// would never arrive. A per-tag stream carries one result per swap and is not
// affected. The log counts the windows that shared a swap.

const (
	clusterShards = 2
	// clusterSetups is how many times a pass builds its stack; setup_s
	// is the median and the last one is measured.
	clusterSetups = 9
	// solveCache is the per-shard stationary-tag cache size, above the
	// shelf population.
	solveCache = 256
	// shelfTags is the shelf population; at one hop round per tag every
	// 10 s this offers ≈30k reports/s and 13 windows/s.
	shelfTags = 130
	// The shelf read mix.
	pointReadRate = 400.0
	pageReadRate  = 5.0
	pageLimit     = 100
	// frameWait bounds the wait for the last expected SSE frames after
	// the schedule ends.
	frameWait = 30 * time.Second
)

// svcSpec describes one service workload.
type svcSpec struct {
	name string
	in   *svcInput
}

// roundSpan is one hop round at the reader's real pace: 50 channels ×
// 200 ms.
func roundSpan() time.Duration { return time.Duration(rf.NumChannels) * sim.DefaultConfig().DwellTime }

// shelfPopulation fixes the shelf's deployment (tag poses, materials
// and when each tag's reader starts hopping), the way testbedSeed fixes
// the testbed; --seed varies the traffic on it. With start times drawn
// per seed, the number of windows that close together moved between 6
// and 40 of 400, and the freshness tail with it.
const shelfPopulation = 1

// shelfPlans is a fixed population of stationary tags. Each is read at
// the full single-tag rate, 2,350 reports per round; 130 such tags
// make the ≈30k reports/s of the workload. In the simulator's reader
// model a reader's reads per dwell are shared by every tag it sees
// (sim.CollectInventoryWindow), so a tag read at that rate has a
// reader to itself. Each tag's reader hops on its own clock, started
// at a random point of a round: independent readers are not
// synchronized. The shelf holds every material in equal share.
func shelfPlans(n int, span, to time.Duration) []tagPlan {
	rng := poseRand(shelfPopulation)
	starts := rand.New(rand.NewSource(shelfPopulation ^ 0x57a7))
	mats := append([]rf.Material{mustMaterial("none")}, rf.EvaluationMaterials()...)
	var plans []tagPlan
	for i := 0; i < n; i++ {
		start := time.Duration(starts.Int63n(int64(span)))
		plans = append(plans, tagPlan{
			epc:    fmt.Sprintf("shelf-%04d", i),
			truth:  randomPose(rng),
			mat:    mats[i%len(mats)],
			start:  start,
			rounds: int((to-start)/span) + 1,
		})
	}
	return plans
}

// poseRand draws a workload's tag poses and materials: a stream of its
// own, apart from the simulator's noise stream of the same seed.
func poseRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x705e)) }

func mustMaterial(name string) rf.Material {
	m, err := rf.MaterialByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// shelfSpec builds the shelf's input. Every tag's first window only
// fills the solve cache. All of them close by two rounds in; the
// measured span, and with it the read mix, starts a quarter round
// later, so that every tag read has a result even when the first
// windows' cold solves run slow.
func shelfSpec(seed int64, seconds time.Duration, tags int, span time.Duration) (*svcSpec, error) {
	from := 2*span + span/4
	to := from + seconds
	in, err := buildInput(seed, shelfPlans(tags, span, to), span, from, to)
	if err != nil {
		return nil, err
	}
	in.addReads(seed, pointReadRate, pageReadRate)
	return &svcSpec{name: "shelf", in: in}, nil
}

func runShelf(p params) (*outcome, error) {
	spec, err := shelfSpec(p.seed, p.seconds, shelfTags, roundSpan())
	if err != nil {
		return nil, err
	}
	return runService(p, spec)
}

func runService(p params, spec *svcSpec) (*outcome, error) {
	in := spec.in
	measured := 0
	for _, w := range in.windows {
		if in.measured(w) {
			measured++
		}
	}
	p.log("%s: %d reports in %d chunks, %d windows (%d measured), %d reads",
		spec.name, len(in.reports), len(in.chunks), len(in.windows), measured, len(in.reads))
	o := newOutcome()
	plain, err := servicePass(p, spec, false, o)
	if err != nil {
		return nil, err
	}
	plain.endToEnd(o)
	o.attempted, o.failed = plain.attempted, plain.failed
	for _, d := range []*dist{plain.fresh, plain.reads, plain.loc, plain.orient, plain.late} {
		p.log("%s", d.summary())
	}
	if !p.trace {
		return o, nil
	}
	traced, err := servicePass(p, spec, true, o)
	if err != nil {
		return nil, err
	}
	zeroLayer(o.layer)
	traced.perLayer(o.layer)
	overhead(o.layer, plain.delta.cpu, plain.measured, plain.fresh, traced.delta.cpu, traced.measured, traced.fresh)
	for _, d := range []*dist{traced.handoff, traced.process, traced.frame, traced.subPost, traced.post} {
		p.log("%s", d.summary())
	}
	if err := traced.writeHops(spec.name, p.seed); err != nil {
		return nil, err
	}
	return o, nil
}

// cluster is one running service stack.
type cluster struct {
	c       *router.Cluster
	srv     *http.Server
	done    chan struct{}
	url     string
	dir     string
	systems []*rfprism.System
	procs   []*timedProc
	interp  *interposer
	tracer  *spanTracer
	streams []*http.Response
	cancel  context.CancelFunc
	stopped atomic.Bool
}

// startCluster builds the measured stack: calibrated shard systems, the
// journaled cluster and the router listener.
func startCluster(traced bool, dir string) (*cluster, error) {
	cl := &cluster{dir: dir, done: make(chan struct{})}
	opts := []rfprism.Option{rfprism.WithWarmStart(), rfprism.WithSolveCache(solveCache)}
	if traced {
		cl.tracer = newSpanTracer()
		opts = append(opts, rfprism.WithTracer(cl.tracer))
	}
	for i := 0; i < clusterShards; i++ {
		s, err := exp.NewSetup(exp.Config{Seed: testbedSeed, SysOpts: opts})
		if err != nil {
			return nil, err
		}
		cl.systems = append(cl.systems, s.Sys)
	}
	var rcfg router.Config
	if traced {
		// The router's default shard transport, timed.
		cl.interp = &interposer{
			base:   &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second},
			active: &cl.tracer.active,
			post:   newDist("ingest.post", "ms"),
		}
		rcfg.Client = &http.Client{Transport: cl.interp}
	}
	next := 0
	c, err := router.NewCluster(router.ClusterConfig{
		Shards: clusterShards,
		Dir:    dir,
		Router: rcfg,
		Daemon: ingest.Config{Sessionizer: sessionizerConfig()},
		NewProcessor: func(string) ingest.Processor {
			sys := cl.systems[next%len(cl.systems)]
			next++
			if !traced {
				return sys
			}
			tp := &timedProc{inner: sys, at: map[winKey]hopTimes{}, seqs: map[string]int{}}
			cl.procs = append(cl.procs, tp)
			return tp
		},
	})
	if err != nil {
		return nil, err
	}
	cl.c = c
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.url = "http://" + ln.Addr().String()
	cl.srv = &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(cl.done)
		_ = cl.srv.Serve(ln)
	}()
	return cl, nil
}

// subscribe opens one SSE stream per tag through the router.
func (cl *cluster) subscribe(epcs []string) error {
	ctx, cancel := context.WithCancel(context.Background())
	cl.cancel = cancel
	for _, epc := range epcs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.url+"/v1/tags/"+url.PathEscape(epc)+"/stream", nil)
		if err != nil {
			return err
		}
		resp, err := streamClient.Do(req)
		if err != nil {
			return err
		}
		cl.streams = append(cl.streams, resp)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("stream of %s: status %d", epc, resp.StatusCode)
		}
	}
	return nil
}

// stopStreams ends every subscription; the subscribers then return.
func (cl *cluster) stopStreams() {
	cl.stopped.Store(true)
	if cl.cancel != nil {
		cl.cancel()
	}
	for _, resp := range cl.streams {
		resp.Body.Close()
	}
}

// close tears the stack down: the subscriptions first (so drain-closed
// partial windows are not mistaken for measured ones), then the
// cluster, which drains its shards briefly before cancelling.
func (cl *cluster) close() {
	cl.stopStreams()
	if cl.srv != nil {
		_ = cl.srv.Close()
		<-cl.done
	}
	if cl.c != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = cl.c.Close(ctx)
		cancel()
	}
	if cl.dir != "" {
		_ = os.RemoveAll(cl.dir)
	}
}

// Client connections: one for ingest and one for reads, each limited
// to a single TCP connection, and one per tag stream.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

var (
	writeClient  = oneConn()
	readClient   = oneConn()
	streamClient = &http.Client{Transport: &http.Transport{DisableCompression: true}}
)

// frameRec is what a subscriber saw for one window.
type frameRec struct {
	at       time.Time
	epoch    uint64
	rejected bool
	err      string
	loc      float64
	orient   float64
}

// svcRun is one measured pass of a service workload.
type svcRun struct {
	spec    *svcSpec
	log     func(format string, args ...any)
	setup   []float64
	delta   spanDelta
	peakMB  float64
	base    time.Time
	firstAt time.Time // measured span start (wall)
	lastAt  time.Time // receipt of the last measured frame

	// failed counts windows that never reached a subscriber (a run
	// failure); rejected counts windows answered with an error, which
	// is program output reported in ok_frac.
	attempted, failed, rejected, measured int

	fresh, reads, loc, orient, late, post *dist

	mu     sync.Mutex // guards frames and allIn
	frames map[winKey]frameRec
	allIn  bool // every expected window arrived
	// early counts point reads answered 404 because the tag's first
	// window had not reached a subscriber when the read was sent.
	early int

	// traced pass only
	cl                      *cluster
	handoff, process, frame *dist
	subPost                 *dist
	hopErrMax               float64
	hops                    []hopRow
	stats0, stats1          []rfprism.SolveStatsSnapshot
	metrics0, metrics1      map[string]float64
	queueMax                atomic.Int64
	posts, bytes            int
	swaps                   int
}

type hopRow struct {
	EPC       string  `json:"epc"`
	Seq       int     `json:"seq"`
	HandoffMS float64 `json:"handoffMs"`
	ProcessMS float64 `json:"processMs"`
	FrameMS   float64 `json:"frameMs"`
	FreshMS   float64 `json:"freshMs"`
}

func servicePass(p params, spec *svcSpec, traced bool, o *outcome) (*svcRun, error) {
	in := spec.in
	r := &svcRun{
		spec:   spec,
		log:    p.log,
		fresh:  newDist("fresh", "ms"),
		reads:  newDist("read", "ms"),
		loc:    newDist("loc_err", "m"),
		orient: newDist("orient_err", "deg"),
		late:   newDist("bench.gen_late", "ms"),
		post:   newDist("router.post", "ms"),
		frames: map[winKey]frameRec{},
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	heap0 := liveHeap()
	var cl *cluster
	for i := 0; i < clusterSetups; i++ {
		dir := filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", spec.name, os.Getpid(), i))
		t0 := time.Now()
		c, err := startCluster(traced, dir)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", spec.name, err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if cl != nil {
			cl.close()
		}
		cl = c
	}
	defer cl.close()
	r.cl = cl
	if traced {
		r.handoff = newDist("ingest.handoff", "ms")
		r.process = newDist("hop.process", "ms")
		r.frame = newDist("serve.frame", "ms")
		r.subPost = cl.interp.post
	}

	expected := len(in.windows)
	for _, w := range in.windows {
		if in.measured(w) {
			r.measured++
		}
	}
	if err := cl.subscribe(in.epcs); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	allIn := make(chan struct{})
	// died receives the error of every stream that ends before the
	// pass stops it.
	died := make(chan error, len(cl.streams))
	var subs sync.WaitGroup
	for _, resp := range cl.streams {
		subs.Add(1)
		go func() {
			defer subs.Done()
			if err := r.follow(cl, resp, expected, allIn, o); err != nil {
				died <- err
			}
		}()
	}

	runtime.GC()
	r.base = time.Now().Add(50 * time.Millisecond)
	var wg sync.WaitGroup
	var genErr, readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		genErr = r.send(cl)
	}()
	if len(in.reads) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readErr = r.readMix(cl)
		}()
	}

	time.Sleep(time.Until(r.base.Add(in.from)))
	var probe func()
	if traced {
		probe = func() {
			for _, id := range cl.c.ShardIDs() {
				if d := cl.c.ShardDaemon(id); d != nil {
					if q := int64(d.Gauges().QueueDepth); q > r.queueMax.Load() {
						r.queueMax.Store(q)
					}
				}
			}
		}
		r.stats0 = solveStats(cl)
		r.metrics0 = scrape(cl.url)
		cl.tracer.active.Store(true)
	}
	sampler := startSampler(20*time.Millisecond, probe)
	m0 := markSpan()
	r.firstAt = m0.wall
	time.Sleep(time.Until(r.base.Add(in.to)))
	m1 := markSpan()
	r.peakMB = sampler.finish(heap0)
	r.delta = m0.to(m1)
	if traced {
		cl.tracer.active.Store(false)
		r.stats1 = solveStats(cl)
		r.metrics1 = scrape(cl.url)
	}
	wg.Wait()
	select {
	case <-allIn:
	case err := <-died:
		died <- err
	case <-time.After(frameWait):
	}
	cl.stopStreams()
	// The subscribers record problems while they run; report the others
	// only once they have stopped.
	subs.Wait()
	close(died)
	for err := range died {
		o.problem("%s: subscriber: %v", spec.name, err)
	}
	if genErr != nil {
		o.problem("%s: ingest: %v", spec.name, genErr)
	}
	if readErr != nil {
		o.problem("%s: reads: %v", spec.name, readErr)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(o, traced)
	return r, nil
}

// send runs the open-loop ingest schedule on the write connection.
// Each chunk is sent when due, or as soon as the connection frees up
// after it; for chunks in the measured span it records how late the
// send was and the POST → 202 time.
func (r *svcRun) send(cl *cluster) error {
	in := r.spec.in
	stream := fmt.Sprintf("perfbench-%d", time.Now().UnixNano())
	var body []byte
	for _, ch := range in.chunks {
		body = in.encode(body[:0], ch)
		r.bytes += len(body)
		due := r.base.Add(ch.due)
		time.Sleep(time.Until(due))
		start := time.Now()
		if err := postChunk(cl.url, stream, body, ch.lo); err != nil {
			return err
		}
		r.posts++
		if ch.due >= in.from && ch.due < in.to {
			r.late.addDur(start.Sub(due))
			r.post.addDur(time.Since(start))
		}
	}
	return nil
}

// postChunk delivers one chunk, resuming from the accepted prefix
// after backpressure. Any other refusal fails the run.
func postChunk(base, stream string, body []byte, pos int) error {
	for tries := 0; len(body) > 0; tries++ {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/ingest", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set(ingest.HeaderStream, stream)
		req.Header.Set(ingest.HeaderStreamPos, strconv.Itoa(pos+1))
		resp, err := writeClient.Do(req)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var env api.Error
		_ = json.Unmarshal(b, &env)
		switch {
		case resp.StatusCode == http.StatusAccepted:
			return nil
		case resp.StatusCode == http.StatusTooManyRequests && tries < 1000:
			for i := 0; i < env.Accepted; i++ {
				body = body[bytes.IndexByte(body, '\n')+1:]
			}
			pos += env.Accepted
			time.Sleep(time.Duration(max(env.RetryAfterMS, 1)) * time.Millisecond)
		default:
			return fmt.Errorf("POST /v1/ingest: %d %s (%s)", resp.StatusCode, env.Code, env.Error)
		}
	}
	return nil
}

// readMix runs the open-loop read schedule on the read connection,
// timing each read from when it was due.
func (r *svcRun) readMix(cl *cluster) error {
	cursor := ""
	for i, op := range r.spec.in.reads {
		due := r.base.Add(op.due)
		time.Sleep(time.Until(due))
		path, def := "/v1/tags/"+url.PathEscape(op.epc), "tagHistory"
		if op.epc == "" {
			path, def = fmt.Sprintf("/v1/tags?limit=%d", pageLimit), "tagList"
			if cursor != "" {
				path += "&cursor=" + url.QueryEscape(cursor)
			}
		}
		sent := time.Now()
		resp, err := readClient.Get(cl.url + path)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		r.reads.addDur(time.Since(due))
		if resp.StatusCode == http.StatusNotFound && op.epc != "" && !r.delivered(op.epc, sent) {
			// The tag has no result yet, which is what 404 says: its
			// first window's cold solve outlasted the warm-up.
			r.early++
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		if op.epc == "" {
			var tl api.TagList
			if err := json.Unmarshal(b, &tl); err != nil {
				return fmt.Errorf("GET %s: %w", path, err)
			}
			cursor = tl.Next
		}
		// Validating every body would make the harness a large part of
		// the measured CPU; a fixed sample keeps the schema gate.
		if i%25 == 0 {
			if err := api.Validate(def, b); err != nil {
				return fmt.Errorf("GET %s: %w", path, err)
			}
		}
	}
	return nil
}

// delivered reports whether a subscriber received epc's first window
// before t.
func (r *svcRun) delivered(epc string, t time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	fr, ok := r.frames[winKey{epc, 0}]
	return ok && fr.at.Before(t)
}

// follow reads one tag's stream until the pass stops it, recording
// each result frame's receipt time. allIn is closed once expected
// windows arrived over all streams.
func (r *svcRun) follow(cl *cluster, resp *http.Response, expected int, allIn chan struct{}, o *outcome) error {
	br := bufio.NewReaderSize(resp.Body, 16<<10)
	var event string
	var id uint64
	var data []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if cl.stopped.Load() {
				return nil
			}
			return err
		}
		switch {
		case len(line) == 1: // blank line: the frame is complete
			now := time.Now()
			r.mu.Lock()
			r.onFrame(event, id, data, now, o)
			if !r.allIn && len(r.frames) >= expected {
				close(allIn)
				r.allIn = true
			}
			r.mu.Unlock()
			event, id, data = "", 0, data[:0]
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(bytes.TrimSpace(line[7:]))
		case bytes.HasPrefix(line, []byte("id: ")):
			id, _ = strconv.ParseUint(string(bytes.TrimSpace(line[4:])), 10, 64)
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], bytes.TrimSuffix(line[6:], []byte("\n"))...)
		}
	}
}

// onFrame handles one complete SSE frame. Callers hold the run's mutex.
func (r *svcRun) onFrame(event string, id uint64, data []byte, at time.Time, o *outcome) {
	name := r.spec.name
	switch event {
	case "":
		return // comment / heartbeat
	case "result":
	default:
		o.problem("%s: subscriber got %q frame: %s", name, event, data)
		return
	}
	if err := api.Validate("tagResult", data); err != nil {
		o.problem("%s: frame fails schema: %v", name, err)
		return
	}
	var tr api.TagResult
	if err := json.Unmarshal(data, &tr); err != nil {
		o.problem("%s: frame: %v", name, err)
		return
	}
	k := winKey{tr.EPC, tr.Seq}
	if _, dup := r.frames[k]; dup {
		o.problem("%s: window %s/%d delivered twice", name, k.epc, k.seq)
		return
	}
	fr := frameRec{at: at, epoch: id, rejected: tr.Err != "" || tr.Estimate == nil, err: tr.Err}
	if !fr.rejected {
		truth, ok := r.spec.in.truth[tr.EPC]
		if !ok {
			o.problem("%s: frame for unknown tag %s", name, tr.EPC)
			return
		}
		fr.loc, fr.orient = errors2D(tr.Estimate.X, tr.Estimate.Y, tr.Estimate.AlphaDeg*math.Pi/180, truth)
	}
	r.frames[k] = fr
}

// check applies the correctness gates and collects the distributions.
// Every offline window is an attempted operation. A missing one fails
// the run; a rejected one is counted. Both count as +∞ freshness when
// measured.
func (r *svcRun) check(o *outcome, traced bool) {
	in := r.spec.in
	name := r.spec.name
	var missing, errored []string
	swaps := map[string]int{} // measured windows per shard swap
	for _, w := range in.windows {
		r.attempted++
		id := fmt.Sprintf("%s/%d", w.key.epc, w.key.seq)
		if w.reason != ingest.CloseCoverage {
			o.problem("%s: window %s closed by %v offline", name, id, w.reason)
		}
		fr, ok := r.frames[w.key]
		switch {
		case !ok:
			missing = append(missing, id)
		case fr.rejected:
			errored = append(errored, id+": "+fr.err)
		}
		if !ok || fr.rejected {
			if !ok {
				r.failed++
			} else {
				r.rejected++
			}
			if in.measured(w) {
				r.fresh.add(math.Inf(1))
			}
			continue
		}
		if !in.measured(w) {
			continue
		}
		fresh := fr.at.Sub(r.base.Add(w.due))
		r.fresh.addDur(fresh)
		r.loc.add(fr.loc)
		r.orient.add(fr.orient)
		if fr.at.After(r.lastAt) {
			r.lastAt = fr.at
		}
		owner, _ := r.cl.c.Router().Owner(w.key.epc)
		swaps[fmt.Sprintf("%s/%d", owner.ID, fr.epoch)]++
		if traced {
			r.hop(w, fr, fresh)
		}
	}
	shared := 0
	for _, n := range swaps {
		if n > 1 {
			shared += n
		}
	}
	r.log("%s: %d of %d measured windows shared a snapshot swap with another (the /v1/stream firehose would deliver one per swap)",
		name, shared, r.fresh.n())
	examples := func(ids []string) []string { return ids[:min(len(ids), 5)] }
	if len(missing) > 0 {
		o.problem("%s: %d windows never reached a subscriber, e.g. %v", name, len(missing), examples(missing))
	}
	if len(errored) > 0 {
		r.log("%s: %d windows rejected, e.g. %v", name, len(errored), examples(errored))
	}
	if r.early > 0 {
		r.log("%s: %d point reads came before the tag's first result (404)", name, r.early)
	}
	var extra []string
	for k := range r.frames {
		if !in.known[k] {
			extra = append(extra, fmt.Sprintf("%s/%d", k.epc, k.seq))
		}
	}
	if len(extra) > 0 {
		o.problem("%s: subscribers saw %d windows the offline sessionization does not close, e.g. %v",
			name, len(extra), examples(extra))
	}
	r.attempted += r.reads.n()
	r.swaps = len(swaps)
}

// endToEnd fills the end-to-end metrics of a service pass.
func (r *svcRun) endToEnd(o *outcome) {
	o.e2e["setup_s"] = median(r.setup)
	if el := r.lastAt.Sub(r.firstAt); el > 0 {
		o.e2e["windows_per_s"] = float64(r.measured) / el.Seconds()
	}
	o.e2e["cpu_ms_per_window"] = ms(r.delta.cpu) / float64(r.measured)
	o.e2e["peak_heap_mb"] = r.peakMB
	o.e2e["ok_frac"] = float64(r.attempted-r.failed-r.rejected) / float64(max(r.attempted, 1))
	quantile(o, r.fresh, "fresh_p50_ms", 0.50)
	accuracy(o, r.loc, r.orient)
}

// perLayer fills the per-layer metrics of a traced pass.
func (r *svcRun) perLayer(layer map[string]float64) {
	wall := r.delta.wall
	r.cl.tracer.fill(layer, wall, len(r.cl.systems)*runtime.GOMAXPROCS(0))
	var hits, misses, warm, fallback int64
	for i := range r.stats1 {
		hits += r.stats1[i].CacheHits - r.stats0[i].CacheHits
		misses += r.stats1[i].CacheMisses - r.stats0[i].CacheMisses
		warm += r.stats1[i].WarmAttempts - r.stats0[i].WarmAttempts
		fallback += r.stats1[i].WarmFallbacks - r.stats0[i].WarmFallbacks
	}
	if hits+misses > 0 {
		layer["rfprism.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if warm > 0 {
		layer["rfprism.warm_fallback_ratio"] = float64(fallback) / float64(warm)
	}
	layer["rfprism.rejected"] = float64(r.rejected)
	layer["router.post_ms_p50"] = orZero(r.post.q(0.50))
	layer["router.post_ms_p95"] = orZero(r.post.q(0.95))
	layer["ingest.post_ms_p50"] = orZero(r.subPost.q(0.50))
	layer["ingest.post_ms_p95"] = orZero(r.subPost.q(0.95))
	layer["ingest.handoff_ms_p50"] = orZero(r.handoff.q(0.50))
	layer["ingest.handoff_ms_p95"] = orZero(r.handoff.q(0.95))
	if r.posts > 0 {
		layer["router.fanout_ratio"] = float64(r.cl.interp.n.Load()) / float64(r.posts)
	}
	delta := func(name string) float64 { return r.metrics1[name] - r.metrics0[name] }
	layer["router.retries"] = delta("router_retries_total")
	layer["ingest.backpressured"] = delta(`rfprismd_reports_total{outcome="backpressured"}`)
	layer["ingest.queue_depth_max"] = float64(r.queueMax.Load())
	layer["api.bytes_per_report"] = float64(r.bytes) / float64(len(r.spec.in.reports))
	layer["serve.frame_ms_p50"] = orZero(r.frame.q(0.50))
	layer["serve.frame_ms_p95"] = orZero(r.frame.q(0.95))
	layer["serve.swaps_per_s"] = float64(r.swaps) / wall.Seconds()
	layer["serve.read_ms_p50"] = orZero(r.reads.q(0.50))
	layer["serve.read_ms_p95"] = orZero(r.reads.q(0.95))
	layer["hop.process_ms_p50"] = orZero(r.process.q(0.50))
	layer["hop.process_ms_p95"] = orZero(r.process.q(0.95))
	layer["hop.sum_err_max_ms"] = r.hopErrMax
	layer["go.gc_cpu_frac"] = r.delta.gcCPUFrac
	layer["go.alloc_mb_per_window"] = float64(r.delta.allocBytes) / (1 << 20) / float64(r.measured)
	layer["bench.gen_late_p95_ms"] = orZero(r.late.q(0.95))
}

func solveStats(cl *cluster) []rfprism.SolveStatsSnapshot {
	out := make([]rfprism.SolveStatsSnapshot, len(cl.systems))
	for i, s := range cl.systems {
		out[i] = s.SolveStats()
	}
	return out
}

// scrape reads the router's merged /metrics into name{labels} → value
// (summed across shards).
func scrape(base string) map[string]float64 {
	out := map[string]float64{}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		// Each sample counts under its full key, under its name with
		// only the outcome label, and under its bare name, so counters
		// sum across the fleet.
		key := line[:sp]
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
		}
		for k := range map[string]bool{key: true, name: true, name + pickLabel(labels): true} {
			out[k] += v
		}
	}
	return out
}

// pickLabel keeps the outcome label of a label set, if any.
func pickLabel(labels string) string {
	for _, part := range strings.Split(strings.Trim(labels, "{}"), ",") {
		if strings.HasPrefix(part, "outcome=") {
			return "{" + part + "}"
		}
	}
	return ""
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/resultstore"
	"bpredpower/internal/service"
	"bpredpower/internal/workload"
)

// serveClients is the closed loop's client count: bpserved's callers each
// wait for their reply. With one client in flight on the run's one
// scheduler thread, a request's latency on the CPU clock is its own cost,
// not a share of another request's.
const serveClients = 1

// cancelBench is the benchmark of every abandoned request.
const cancelBench = "164.gzip"

// sweepWorkload is the benchmark set of every sweep grid; its keys are all
// simulated by the cold phase, so every grid point is a hit or a fold.
const sweepWorkload = "Subset7"

// Headers the traced run adds so the server-side wrappers can link their
// spans to the client's.
const (
	spanHeader = "X-Perfbench-Span"
	keyHeader  = "X-Perfbench-Key"
)

// key is one quick-fidelity execution key: a paper predictor on a benchmark.
type key struct{ pred, bench string }

func (k key) String() string { return k.bench + "|" + k.pred }

// servePlan is the request sequence of one serve session, drawn from the
// seed alone.
type servePlan struct {
	cold     []key
	warm     []key
	sweeps   [][]string
	restarts [][]key
	cancels  []key
}

// allKeys lists the 14 paper predictors × 22 benchmarks.
func allKeys() []key {
	var keys []key
	for _, spec := range bpred.PaperConfigs() {
		for _, b := range workload.All() {
			keys = append(keys, key{spec.Name, b.Name})
		}
	}
	return keys
}

func shuffled(rng *rand.Rand, keys []key) []key {
	out := slices.Clone(keys)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// makeServePlan draws a session's requests: every key once in a seeded order
// (cold), Zipf-popular repeats of a seeded ranking (warm), distinct
// predictor subsets for the sweep grids, every key once again for each
// restarted server (restart, one per cycle), and the keys of the abandoned
// long-window requests (cancel), each set repeated sz.cancelRepeats times.
func makeServePlan(seed uint64, sz sizes) servePlan {
	rng := rand.New(rand.NewPCG(seed, 0x5e57e))
	keys := shuffled(rng, allKeys())
	if sz.keys > 0 && sz.keys < len(keys) {
		keys = keys[:sz.keys]
	}
	var p servePlan
	p.cold = shuffled(rng, keys)
	rank := shuffled(rng, keys)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(rank)-1))
	for range sz.warmRequests {
		p.warm = append(p.warm, rank[zipf.Uint64()])
	}
	names := make([]string, 0, len(bpred.PaperConfigs()))
	for _, spec := range bpred.PaperConfigs() {
		names = append(names, spec.Name)
	}
	seen := map[string]bool{}
	for len(p.sweeps) < sz.sweeps {
		var set []string
		for _, i := range rng.Perm(len(names))[:sz.sweepPreds] {
			set = append(set, names[i])
		}
		slices.Sort(set)
		if id := strings.Join(set, ","); !seen[id] {
			seen[id] = true
			p.sweeps = append(p.sweeps, set)
		}
	}
	for range sz.restarts {
		p.restarts = append(p.restarts, shuffled(rng, keys))
	}
	// Paper predictors on one benchmark: the abandoned requests are the same
	// multiset for every seed, so their median does not depend on which
	// keys a seed happens to draw (simulation speed differs by key).
	var cancels []key
	for _, name := range names {
		cancels = append(cancels, key{name, cancelBench})
	}
	// Evenly spaced predictors, so the set spans the families.
	n := min(sz.cancels, len(cancels))
	subset := make([]key, n)
	for i := range subset {
		subset[i] = cancels[i*len(cancels)/n]
	}
	cancels = subset
	for range sz.cancelRepeats {
		p.cancels = append(p.cancels, shuffled(rng, cancels)...)
	}
	return p
}

type ctxKey struct{}

// reqInfo is what the traced handler wrapper knows about a request; hooks
// read it back from the request context.
type reqInfo struct {
	span  uint64
	req   string
	key   string
	start time.Duration
}

// observer chains the run cache's hooks and, in the traced run, wraps the
// handler and the result store.
type observer struct {
	tr *tracer

	mu       sync.Mutex
	sims     map[string]spanRef  // open simulation spans by "bench|machine"
	handlers map[string]*reqInfo // in-flight traced requests by key
	started  chan struct{}       // armed by the cancel phase
	freed    chan time.Time      // armed by the cancel phase
}

func newObserver(tr *tracer) *observer {
	return &observer{tr: tr, sims: map[string]spanRef{}, handlers: map[string]*reqInfo{}}
}

func (o *observer) beforeRun(ctx context.Context) {
	at := now()
	if ri, ok := ctx.Value(ctxKey{}).(*reqInfo); ok && o.tr != nil {
		o.tr.startAt("experiments.wait", ri.span, ri.req, ri.start).endAt(at)
		sp := o.tr.startAt("experiments.sim", ri.span, ri.req, at)
		o.mu.Lock()
		o.sims[ri.key] = sp
		o.mu.Unlock()
	}
	o.mu.Lock()
	ch := o.started
	o.mu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func (o *observer) afterRun(r experiments.Run, err error) {
	at := now()
	o.mu.Lock()
	k := r.Benchmark + "|" + r.Machine
	sp, ok := o.sims[k]
	if !ok && len(o.sims) == 1 {
		// A failed run carries no key; with one simulation open it is that one.
		for kk, s := range o.sims {
			k, sp, ok = kk, s, true
		}
	}
	if ok {
		delete(o.sims, k)
	}
	ch := o.freed
	o.mu.Unlock()
	sp.endAt(at)
	if err != nil && ch != nil {
		select {
		case ch <- time.Now():
		default:
		}
	}
}

// arm starts watching for one abandoned request's simulation.
func (o *observer) arm() (started chan struct{}, freed chan time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started, o.freed = make(chan struct{}, 1), make(chan time.Time, 1)
	return o.started, o.freed
}

func (o *observer) disarm() {
	o.mu.Lock()
	o.started, o.freed = nil, nil
	o.mu.Unlock()
}

func routeName(path string) string {
	switch {
	case path == "/v1/simulate":
		return "simulate"
	case strings.HasPrefix(path, "/v1/sweeps"):
		return "sweeps"
	case path == "/metrics":
		return "metrics"
	}
	return "other"
}

// wrap times the service handler and tags the request context so hooks and
// store calls can name their parent span.
func (o *observer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		ri := &reqInfo{req: r.Header.Get("X-Request-ID"), key: r.Header.Get(keyHeader), start: now()}
		sp := o.tr.startAt("service.handler."+routeName(r.URL.Path), parent, ri.req, ri.start)
		ri.span = sp.id
		if ri.key != "" {
			o.mu.Lock()
			o.handlers[ri.key] = ri
			o.mu.Unlock()
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, ri)))
		sp.end()
		if ri.key != "" {
			o.mu.Lock()
			if o.handlers[ri.key] == ri {
				delete(o.handlers, ri.key)
			}
			o.mu.Unlock()
		}
	})
}

// storeSpan opens a span for a store call, parented to the traced request
// that asked for the key.
func (o *observer) storeSpan(name, bench string, opt cpu.Options) spanRef {
	o.mu.Lock()
	ri := o.handlers[bench+"|"+opt.Predictor.Name]
	o.mu.Unlock()
	if ri == nil {
		return o.tr.start(name, 0, "")
	}
	return o.tr.start(name, ri.span, ri.req)
}

// timedStore is the traced run's result store: the real store, with a span
// around every call.
type timedStore struct {
	st *resultstore.Store
	o  *observer
}

func (s timedStore) Load(b string, opt cpu.Options, rc experiments.RunConfig) (experiments.Run, bool) {
	sp := s.o.storeSpan("resultstore.load", b, opt)
	defer sp.end()
	return s.st.Load(b, opt, rc)
}

func (s timedStore) Save(b string, opt cpu.Options, rc experiments.RunConfig, r experiments.Run) {
	sp := s.o.storeSpan("resultstore.save", b, opt)
	defer sp.end()
	s.st.Save(b, opt, rc, r)
}

func (s timedStore) LoadActivity(b string, opt cpu.Options, rc experiments.RunConfig) (experiments.ActivityRecord, bool) {
	sp := s.o.storeSpan("resultstore.load_activity", b, opt)
	defer sp.end()
	return s.st.LoadActivity(b, opt, rc)
}

func (s timedStore) SaveActivity(b string, opt cpu.Options, rc experiments.RunConfig, ar experiments.ActivityRecord) {
	sp := s.o.storeSpan("resultstore.save_activity", b, opt)
	defer sp.end()
	s.st.SaveActivity(b, opt, rc, ar)
}

// server is one in-process bpserved on a loopback listener.
type server struct {
	store  *resultstore.Store
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
}

// startServer opens the store in dir and serves a new service.Server on it.
// Logs are formatted as bpserved formats them and then discarded.
func startServer(dir string, o *observer) (*server, error) {
	st, err := resultstore.Open(dir, resultstore.Config{})
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{Store: st, Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	prev := srv.Cache.Hooks
	srv.Cache.Hooks = experiments.RunCacheHooks{
		BeforeRun: func(ctx context.Context) {
			if prev.BeforeRun != nil {
				prev.BeforeRun(ctx)
			}
			o.beforeRun(ctx)
		},
		AfterRun: func(r experiments.Run, err error) {
			if prev.AfterRun != nil {
				prev.AfterRun(r, err)
			}
			o.afterRun(r, err)
		},
	}
	h := srv.Handler()
	if o.tr != nil {
		srv.Cache.Store = timedStore{st, o}
		h = o.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{store: st, srv: srv, hs: &http.Server{Handler: h}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits until Serve has returned.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	return nil
}

// session is one run of the five serve phases against servers sharing one
// fresh store directory.
type session struct {
	sz        sizes
	tr        *tracer
	rec       *result
	obs       *observer
	plan      servePlan
	dir       string
	transport *http.Transport
	client    *http.Client
	first     *server              // serves cold, warm, sweep and cancel
	stores    []*resultstore.Store // every server's store handle
	err       error

	mu         sync.Mutex
	cold       map[key][]byte
	cancelFree map[key][]float64 // ms from abandoning each cancel to a free worker
}

// runClients has serveClients goroutines take indices 0..n-1 in order and
// returns when all are done.
func runClients(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// do sends one request and reads the whole reply.
func (s *session) do(ctx context.Context, method string, srv *server, path string, body []byte, req string, k string) (int, []byte, time.Duration, error) {
	sp := s.tr.start("client."+routeName(path), 0, req)
	defer sp.end()
	hreq, err := http.NewRequestWithContext(ctx, method, srv.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if s.tr != nil {
		hreq.Header.Set("X-Request-ID", req)
		hreq.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
		if k != "" {
			hreq.Header.Set(keyHeader, k)
		}
	}
	t0 := now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		return 0, nil, since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, since(t0), err
}

// countRequest records one reply for the route's request/failure counters.
func (s *session) countRequest(route string, ok bool) {
	s.rec.add("service.requests."+route, 1)
	if !ok {
		s.rec.add("service.failed."+route, 1)
	}
}

// endPhase records the run cache's hit traffic over one phase and the
// phase's clock time.
func (s *session) endPhase(phase string, c *experiments.RunCache, before experiments.CacheStats, t0 time.Duration) {
	s.rec.add("phase_s."+phase, since(t0).Seconds())
	after := c.Stats()
	s.rec.add("hits."+phase, float64(after.Hits-before.Hits))
	s.rec.add("lookups."+phase, float64(after.Hits-before.Hits+after.Misses-before.Misses))
}

// Passes of the latency percentiles, in requests. A p50 pass of 100 replies
// takes about 5 ms of warm hits, short enough that many passes fall in
// quiet moments of a busy host; a warm p95 pass of 200 leaves 10 replies
// beyond the p95. A restarted server's p50 passes are store hits but for
// the few replies that regenerate a program image; its p95 is taken over
// all of its replies, since those few are what sets it.
const (
	p50Pass     = 100
	warmP95Pass = 200
)

// simulatePhase sends one /v1/simulate request per key from the closed loop,
// checks each reply with check and samples latency as simulate_<lat>_ms. It
// splits the replies in sending order into passes of p50Pass and of p95Pass
// (0: the whole phase is one pass; a shorter remainder is dropped) and
// samples each pass's p50 or p95 as simulate_<lat>_ms.p50 or .p95.
func (s *session) simulatePhase(phase, lat string, srv *server, keys []key, p50Pass, p95Pass int, check func(k key, body []byte) bool) {
	t0, before := now(), srv.srv.Cache.Stats()
	var mu sync.Mutex
	var pass []float64
	runClients(len(keys), func(i int) {
		k := keys[i]
		body := fmt.Appendf(nil, `{"predictor":%q,"workload":%q}`, k.pred, k.bench)
		status, data, d, err := s.do(context.Background(), http.MethodPost, srv, "/v1/simulate", body,
			fmt.Sprintf("%s-%d", phase, i), k.String())
		ok := err == nil && status == http.StatusOK
		s.countRequest("simulate", ok)
		s.rec.check(ok, "serve %s %s: status %d, error %v", phase, k, status, err)
		if ok {
			s.rec.sample("simulate_"+lat+"_ms", ms(d))
			mu.Lock()
			pass = append(pass, ms(d))
			mu.Unlock()
			s.rec.check(check(k, data), "serve %s %s: reply differs from the cold reply", phase, k)
		}
	})
	s.samplePasses("simulate_"+lat+"_ms.p50", pass, p50Pass, 0.50)
	s.samplePasses("simulate_"+lat+"_ms.p95", pass, p95Pass, 0.95)
	s.endPhase(phase, srv.srv.Cache, before, t0)
}

// samplePasses samples the q-quantile of each whole pass of n latencies
// (n == 0: one pass of all of them) as name.
func (s *session) samplePasses(name string, lat []float64, n int, q float64) {
	if n == 0 {
		n = len(lat)
	}
	for ; n > 0 && len(lat) >= n; lat = lat[n:] {
		s.rec.sample(name, percentile(lat[:n], q))
	}
}

// checkCold validates a cold reply and keeps it as the key's reference body.
func (s *session) checkCold(k key, body []byte) bool {
	var resp service.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Runs) != 1 || resp.Runs[0].Committed == 0 {
		return false
	}
	s.mu.Lock()
	s.cold[k] = body
	s.mu.Unlock()
	return true
}

// sameAsCold requires a reply byte-identical to the key's cold reply.
func (s *session) sameAsCold(k key, body []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Equal(s.cold[k], body)
}

// sweepPass is the number of grids in one pass of sweep_points_per_s,
// about 40 ms of streaming.
const sweepPass = 4

// sweepPhase streams the given grids and samples the points received per
// second as one pass of sweep_points_per_s.
func (s *session) sweepPhase(srv *server, sets [][]string) {
	t0, before := now(), srv.srv.Cache.Stats()
	var points atomic.Int64
	runClients(len(sets), func(i int) {
		body, _ := json.Marshal(map[string]any{
			"predictors":   sets[i],
			"workload":     sweepWorkload,
			"banked":       []bool{false, true},
			"clock_gating": []string{"cc0", "cc1", "cc2", "cc3"},
		})
		status, data, _, err := s.do(context.Background(), http.MethodPost, srv, "/v1/sweeps", body,
			fmt.Sprintf("sweep-%d", i), "")
		want := len(sets[i]) * 2 * 4 * len(workload.Subset7())
		n, ok := sweepPoints(data)
		ok = ok && err == nil && status == http.StatusOK && n == want
		s.countRequest("sweeps", ok)
		s.rec.check(ok, "serve sweep %v: status %d, %d of %d points, error %v", sets[i], status, n, want, err)
		points.Add(int64(n))
	})
	if n := points.Load(); n > 0 {
		s.rec.sample("sweep_points_per_s", float64(n)/since(t0).Seconds())
	}
	s.endPhase("sweep", srv.srv.Cache, before, t0)
}

// sweepPoints counts the point lines of an NDJSON sweep stream and reports
// whether it ends with a successful done trailer.
func sweepPoints(data []byte) (int, bool) {
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 2 {
		return 0, false
	}
	var trailer struct {
		Done   bool `json:"done"`
		Points int  `json:"points"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done {
		return len(lines) - 2, false
	}
	return len(lines) - 2, trailer.Points == len(lines)-2
}

// programsGauge reads bpserved_cache_programs from the server's /metrics.
func (s *session) programsGauge(srv *server) float64 {
	status, data, _, err := s.do(context.Background(), http.MethodGet, srv, "/metrics", nil, "metrics", "")
	ok := err == nil && status == http.StatusOK
	s.countRequest("metrics", ok)
	s.rec.check(ok, "serve metrics: status %d, error %v", status, err)
	for _, line := range strings.Split(string(data), "\n") {
		if v, found := strings.CutPrefix(line, "bpserved_cache_programs "); found {
			n, _ := strconv.ParseFloat(v, 64)
			return n
		}
	}
	s.rec.check(false, "serve metrics: no bpserved_cache_programs gauge")
	return 0
}

// cancelPhase sends long-window requests one at a time and abandons each a
// fixed delay after its simulation starts, timing how long the server's
// worker takes to come free. The phase runs on two scheduler threads, so
// the client and the connection that notices the abandonment run at once
// with the simulation, as they would in bpserved; with one, they would wait
// for the simulation to be preempted. So it is the one phase timed on the
// wall clock: on two threads the process CPU clock would also count a
// garbage collection running beside the simulation.
func (s *session) cancelPhase(srv *server, keys []key) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	t0, before := now(), srv.srv.Cache.Stats()
	for i, k := range keys {
		started, freed := s.obs.arm()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		body := fmt.Appendf(nil, `{"predictor":%q,"workload":%q,"warmup_insts":%d,"measure_insts":%d}`,
			k.pred, k.bench, s.sz.cancelInsts, s.sz.cancelInsts)
		go func() {
			status, _, _, err := s.do(ctx, http.MethodPost, srv, "/v1/simulate", body, fmt.Sprintf("cancel-%d", i), k.String())
			if err == nil {
				err = fmt.Errorf("request completed with status %d before it was abandoned", status)
			}
			done <- err
		}()
		select {
		case <-started:
			time.Sleep(s.sz.cancelDelay)
		case <-time.After(30 * time.Second):
		}
		abandoned := time.Now()
		cancel()
		select {
		case at := <-freed:
			s.mu.Lock()
			s.cancelFree[k] = append(s.cancelFree[k], ms(at.Sub(abandoned)))
			s.mu.Unlock()
		case <-time.After(30 * time.Second):
			s.rec.check(false, "serve cancel %s: worker not freed", k)
		}
		err := <-done
		s.obs.disarm()
		ok := errors.Is(err, context.Canceled)
		s.rec.check(ok, "serve cancel %s: %v", k, err)
		if ok {
			s.rec.add("service.cancels", 1)
		}
	}
	s.endPhase("cancel", srv.srv.Cache, before, t0)
}

// chunk returns the c-th of n near-equal consecutive parts of xs.
func chunk[T any](xs []T, c, n int) []T {
	return xs[c*len(xs)/n : (c+1)*len(xs)/n]
}

// startSession starts a server on a fresh store directory under workdir and
// runs the cold phase. The caller runs the hits and each cycle's
// restartAndCancel, then closes the session.
func startSession(workdir string, plan servePlan, sz sizes, tr *tracer, rec *result) (*session, error) {
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return nil, fmt.Errorf("creating store directory: %w", err)
	}
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
	s := &session{sz: sz, tr: tr, rec: rec, obs: newObserver(tr), plan: plan, dir: dir,
		transport: transport, client: &http.Client{Transport: transport},
		cold: map[key][]byte{}, cancelFree: map[key][]float64{}}
	if s.first, err = startServer(dir, s.obs); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.stores = append(s.stores, s.first.store)
	s.simulatePhase("cold", "cold", s.first, plan.cold, 0, 0, s.checkCold)
	return s, nil
}

// hits runs the i-th of n shares of the warm requests and of the sweeps:
// every reply comes from the run cache or a fold. The sweeps go in passes
// of sweepPass grids.
func (s *session) hits(i, n int) {
	warm := chunk(s.plan.warm, i, n)
	s.simulatePhase("warm", "warm", s.first, warm, min(p50Pass, len(warm)), min(warmP95Pass, len(warm)), s.sameAsCold)
	for sets := chunk(s.plan.sweeps, i, n); len(sets) > 0; sets = sets[min(sweepPass, len(sets)):] {
		s.sweepPhase(s.first, sets[:min(sweepPass, len(sets))])
	}
}

// restartAndCancel starts cycle c's new server on the store, has it answer
// every key and stops it, then runs the cycle's share of the cancels.
func (s *session) restartAndCancel(c int) {
	restarted, err := startServer(s.dir, s.obs)
	if err != nil {
		s.err = errors.Join(s.err, err)
		return
	}
	s.simulatePhase("restart", "store", restarted, s.plan.restarts[c], min(p50Pass, len(s.plan.restarts[c])), 0, s.sameAsCold)
	s.rec.sample("program.images_on_restart", s.programsGauge(restarted))
	s.stores = append(s.stores, restarted.store)
	s.err = errors.Join(s.err, restarted.stop())
	// The restart's program images leave garbage; collecting it first keeps
	// a collection from landing inside some of the cancels only.
	runtime.GC()
	s.cancelPhase(s.first, chunk(s.plan.cancels, c, len(s.plan.restarts)))
}

// close stops the first server, records the stores' counters and each
// cancel's best time to a free worker, and removes the store directory.
func (s *session) close() error {
	err := s.first.stop()
	for _, v := range s.cancelFree {
		s.rec.sample("cancel_free_best_ms", slices.Min(v))
	}
	s.transport.CloseIdleConnections()
	for _, st := range s.stores {
		ss := st.Stats()
		s.rec.add("resultstore.hits", float64(ss.Hits))
		s.rec.add("resultstore.misses", float64(ss.Misses))
		s.rec.add("resultstore.corrupt", float64(ss.Corrupt))
	}
	return errors.Join(s.err, err, os.RemoveAll(s.dir))
}

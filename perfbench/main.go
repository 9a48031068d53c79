// Command perfbench is the repository benchmark. One run sets up the
// simulator and the service, then runs three stages in turns — pipeline
// (serial simulation windows), figures (a fresh harness regenerating a
// figure subset) and serve (an in-process bpserved driven by a closed loop
// of one client) — checks every output, and prints each metric with its
// unit. The stage named by -workload gets more work: pipeline rounds for
// -seconds, or twice the serve session's hits, sweeps and cancels. Times
// are read on the process CPU clock (clock.go), and each is the best of
// many passes spread over the run. With -trace 1 it records spans around
// each layer call and reports per-layer metrics instead. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 3 --seconds 6 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bpredpower/internal/experiments"
	"bpredpower/internal/program"
)

// stages are the parts every run goes through; workloads names the stages
// a run can focus on. The figure suite runs once in every run, so it is not
// a workload of its own.
var (
	stages    = []string{"pipeline", "figures", "serve"}
	workloads = []string{"pipeline", "serve"}
)

// sizes fixes how much work each stage does.
type sizes struct {
	setupReps int // set-up passes per cycle, after the first

	// pipeline
	warmupInsts, windowInsts uint64
	probeInsts               uint64 // layer replays of the traced run

	// figures
	figureRC experiments.RunConfig

	// serve
	keys          int // 0 = all 308 execution keys
	warmRequests  int
	restarts      int // serve cycles, each with a restarted server
	sweeps        int
	sweepPreds    int
	cancels       int    // evenly spaced paper predictors, at most 14
	cancelRepeats int    // times each cancel is repeated
	cancelInsts   uint64 // warm-up and measure window of an abandoned request
	cancelDelay   time.Duration
}

// fullSizes is the benchmark as BENCHMARK.json runs it.
func fullSizes() sizes {
	return sizes{
		setupReps:     3,
		warmupInsts:   200_000,
		windowInsts:   10_000,
		probeInsts:    1_000_000,
		figureRC:      experiments.Default,
		warmRequests:  16000,
		restarts:      4,
		sweeps:        48,
		sweepPreds:    3,
		cancels:       5,
		cancelRepeats: 2,
		cancelInsts:   750_000,
		cancelDelay:   5 * time.Millisecond,
	}
}

// serveFocus is the sizes of a run whose workload is serve: twice the
// cache hits, sweeps and cancels, so each of their figures is the best of
// twice as many passes.
func (sz sizes) serveFocus() sizes {
	sz.warmRequests *= 2
	sz.sweeps *= 2
	sz.cancelRepeats *= 2
	return sz
}

// options is one invocation.
type options struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	reference string // committed figure output the figures stage is checked against
	spec      string // BENCHMARK.json, which lists the metrics to report
	workdir   string
	sz        sizes
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects checks, samples and metrics; it is safe for concurrent use.
type result struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	samples   map[string][]float64
	counters  map[string]float64
	metrics   map[string]metric
	stages    []string // clock time of each stage, for the log
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, counters: map[string]float64{}, metrics: map[string]metric{}}
}

// check counts one checked operation, failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *result) add(name string, v float64) {
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

func (r *result) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{v, unit}
	r.mu.Unlock()
}

// median of the values; 0 for none.
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank q-quantile of v; 0 for none.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// lowest and highest are the best pass of a time and of a rate; 0 for none.
// On a shared host other tenants only ever slow a pass down, so the best
// of several passes spread over a run is the steadiest estimate of the
// program's own cost.
func lowest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}

func highest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Max(v)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sz: fullSizes()}
	fs.StringVar(&o.workload, "workload", "", "stage that gets more work: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the request sequence and the order of pipeline windows")
	secs := fs.Float64("seconds", 6, "time the pipeline workload spends in pipeline rounds")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.reference, "reference", "experiments_output.txt", "committed figure output to check the figures stage against")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition whose metric lists are reported")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for store files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds = time.Duration(*secs * float64(time.Second))
	// One scheduler thread: the process CPU clock then times one thing at
	// a time, and the run leaves the host's other CPU to whatever else runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o.trace = *traced == 1
	if !slices.Contains(workloads, o.workload) || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: -workload must be one of %s and -trace 0 or 1\n", strings.Join(workloads, ", "))
		return 2
	}
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench runs the whole session and fills a result.
func bench(o options, log io.Writer) (*result, error) {
	ref, err := os.ReadFile(o.reference)
	if err != nil {
		return nil, fmt.Errorf("reading the reference figure output: %w", err)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	if o.workload == "serve" {
		o.sz = o.sz.serveFocus()
	}
	rec := newResult()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	heap := startHeapSampler(tr != nil)
	defer heap.stop()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	pairs, progs, err := setup(o, tr, rec)
	defer releasePairs(pairs)
	if err != nil {
		return nil, err
	}
	warmPairs(pairs, o.sz.warmupInsts)

	rng := rand.New(rand.NewPCG(o.seed, 0x9a1e))
	plan := makeServePlan(o.seed, o.sz)
	cycles := len(plan.restarts)
	spent := map[string]time.Duration{}
	timed := func(stage string, fn func()) {
		t0 := now()
		fn()
		spent[stage] += since(t0)
	}

	var sess *session
	timed("serve", func() { sess, err = startSession(o.workdir, plan, o.sz, tr, rec) })
	if err != nil {
		return nil, err
	}
	closed := false
	closeSession := func() error {
		if closed {
			return nil
		}
		closed = true
		return sess.close()
	}
	defer closeSession()
	suite := newSuite(o.sz.figureRC, string(ref), tr, rec)

	// The pipeline stage runs rounds in each turn until its share of fill is
	// spent, and at least one. A traced run has a second, untraced lane of
	// rounds whose time against the traced lane's gives the tracing
	// overhead; it reports into scratch, and its checks still count.
	type pipeLane struct {
		tr    *tracer
		rec   *result
		tot   *pipelineTotals
		spent time.Duration
	}
	scratch := newResult()
	ptot := newPipelineTotals()
	pipes := []*pipeLane{{tr: tr, rec: rec, tot: ptot}}
	if tr != nil {
		pipes = []*pipeLane{{rec: scratch, tot: newPipelineTotals()}, pipes[0]}
	}
	// Untraced, every run fills its pipeline turns with rounds: a focused
	// run spends o.seconds on them, any other a quarter of that, so each
	// pair's fastest window is the best of many.
	fill := o.seconds / 4
	if o.workload == "pipeline" {
		fill = o.seconds
	}
	if tr != nil {
		fill = 0
	}

	// The stages take turns: each cycle runs a share of the cache hits, a
	// pipeline turn, the next figure, a restart and some cancels, another
	// share of the hits and another pipeline turn. Every repeated
	// measurement is then spread over the whole run, so the best of its
	// passes (see summarize) comes from the run's quietest moments.
	slot := 0
	pipeline := func() {
		slot++
		share := fill * time.Duration(slot) / time.Duration(2*cycles)
		timed("pipeline", func() {
			for _, p := range pipes {
				for n := 0; n == 0 || p.spent < share; n++ {
					p.spent += pipelineRound(pairs, o.sz, rng, p.tr, p.rec, p.tot)
				}
			}
		})
	}
	hits := func(i int) { timed("serve", func() { sess.hits(i, 2*cycles) }) }
	for c := range cycles {
		for range o.sz.setupReps {
			extra, _, err := setup(o, tr, rec)
			releasePairs(extra)
			if err != nil {
				return nil, err
			}
		}
		hits(2 * c)
		pipeline()
		timed("figures", func() {
			for _, f := range chunk(suiteFigures, c, cycles) {
				suite.figure(f)
			}
			// A figure leaves much garbage; collecting it here keeps the
			// next restart pass from paying for it in some cycles only.
			runtime.GC()
		})
		timed("serve", func() { sess.restartAndCancel(c) })
		hits(2*c + 1)
		pipeline()
	}
	var serr error
	timed("serve", func() { serr = closeSession() })
	if serr != nil {
		return nil, serr
	}
	suite.finish()
	rec.set("suite_s", suite.total.Seconds(), "s")
	ptot.report(rec)
	rec.mergeChecks(scratch)
	for _, stage := range stages {
		rec.stages = append(rec.stages, fmt.Sprintf("%s %.1fs", stage, spent[stage].Seconds()))
	}
	for _, phase := range []string{"cold", "warm", "sweep", "restart", "cancel"} {
		rec.stages = append(rec.stages, fmt.Sprintf("serve.%s %.1fs", phase, rec.counters["phase_s."+phase]))
	}
	if tr != nil {
		rec.set("trace.overhead_pct", 100*(pipes[1].spent.Seconds()/pipes[0].spent.Seconds()-1), "%")
		if err := layerProbes(progs, pairs, o.sz.probeInsts, tr, rec); err != nil {
			return nil, err
		}
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rec.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	rec.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	rec.set("runtime.heap_peak_mb", heap.stop(), "MB")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	rec.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB")
	rec.summarize()
	if tr != nil {
		spans := tr.snapshot()
		spanMetrics(spans, rec)
		fmt.Fprintln(log, "per-layer spans (self = duration minus the time its child spans cover):")
		printLayerTable(log, layerTable(spans))
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintln(log, "spans written to", path)
	}
	return rec, nil
}

// setup generates the pipeline program images, constructs their simulators
// and starts a server on a new store, which it stops again (each serve
// session starts its own), and samples the time as one pass of setup_s.
// The run calls it once for the simulators it keeps and again in every
// cycle, so setup_s is the fastest of passes spread over the run.
func setup(o options, tr *tracer, rec *result) ([]*pair, []*program.Program, error) {
	dir, err := os.MkdirTemp(o.workdir, "setup-")
	if err != nil {
		return nil, nil, fmt.Errorf("creating store directory: %w", err)
	}
	defer os.RemoveAll(dir)
	debug.FreeOSMemory() // every pass starts from the same heap
	sp := tr.start("setup", 0, "")
	t0 := now()
	progs, err := pipelineImages(tr, sp.id, rec)
	if err != nil {
		return nil, nil, err
	}
	pairs := newPairs(progs, tr, sp.id, rec)
	ssp := tr.start("service.start", sp.id, "")
	srv, err := startServer(dir, newObserver(nil))
	ssp.end()
	d := since(t0)
	sp.end()
	if err == nil {
		err = srv.stop()
	}
	if err != nil {
		return pairs, nil, err
	}
	rec.sample("setup_s", d.Seconds())
	return pairs, progs, nil
}

// mergeChecks adds another result's checks to r.
func (r *result) mergeChecks(o *result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

// summarize turns samples and counters into metrics.
func (r *result) summarize() {
	r.mu.Lock()
	s, c := r.samples, r.counters
	r.mu.Unlock()
	// Latency percentiles are the best pass's: the lowest of the per-pass
	// percentiles (a pass is the cold phase, a share of the warm requests or
	// one restarted server). The cold phase is a single pass.
	for _, lat := range []string{"cold", "warm", "store"} {
		for _, p := range []string{"p50", "p95"} {
			r.set("simulate_"+lat+"_"+p+"_ms", lowest(s["simulate_"+lat+"_ms."+p]), "ms")
		}
	}
	r.set("simulate_warm_p99_ms", percentile(s["simulate_warm_ms"], 0.99), "ms")
	r.set("setup_s", lowest(s["setup_s"]), "s")
	r.set("sweep_points_per_s", highest(s["sweep_points_per_s"]), "1/s")
	r.set("cancel_free_p50_ms", median(s["cancel_free_best_ms"]), "ms")
	r.set("program.gen_ms", median(s["program.gen_ms"]), "ms")
	r.set("program.images_on_restart", median(s["program.images_on_restart"]), "count")
	r.set("cpu.new_ms", median(s["cpu.new_ms"]), "ms")
	for _, f := range suiteFigures {
		r.set("experiments.figure_s."+f.name, median(s["experiments.figure_s."+f.name]), "s")
	}
	for _, phase := range []string{"cold", "warm", "sweep", "restart", "cancel"} {
		r.set("experiments.cache_hit_ratio."+phase, ratio(c["hits."+phase], c["lookups."+phase]), "ratio")
	}
	for _, name := range []string{"resultstore.hits", "resultstore.misses", "resultstore.corrupt"} {
		r.set(name, c[name], "count")
	}
	for _, route := range []string{"simulate", "sweeps", "metrics"} {
		r.set("service.requests."+route, c["service.requests."+route], "count")
		r.set("service.failed."+route, c["service.failed."+route], "count")
	}
}

// spanMetrics derives the span-timed per-layer metrics: mean durations and
// mean self times per span name, and the client round trip minus the
// handler.
func spanMetrics(spans []span, r *result) {
	rows := map[string]layerRow{}
	for _, row := range layerTable(spans) {
		rows[row.Name] = row
	}
	mean := func(name string) time.Duration {
		if row := rows[name]; row.Count > 0 {
			return row.Total / time.Duration(row.Count)
		}
		return 0
	}
	for _, route := range []string{"simulate", "sweeps", "metrics"} {
		row := rows["service.handler."+route]
		r.set("service.handler_ms."+route, ms(mean("service.handler."+route)), "ms")
		var self time.Duration
		if row.Count > 0 {
			self = row.Self / time.Duration(row.Count)
		}
		r.set("service.self_ms."+route, ms(self), "ms")
	}
	r.set("experiments.sim_ms", ms(mean("experiments.sim")), "ms")
	r.set("experiments.wait_ms", ms(mean("experiments.wait")), "ms")
	r.set("resultstore.load_activity_us", us(mean("resultstore.load_activity")), "us")
	r.set("resultstore.save_activity_us", us(mean("resultstore.save_activity")), "us")

	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var transport time.Duration
	var n int
	for _, s := range spans {
		// Abandoned requests are left out: their client span ends first.
		if p, ok := byID[s.Parent]; ok && strings.HasPrefix(s.Name, "service.handler.") &&
			strings.HasPrefix(p.Name, "client.") && p.End >= s.End {
			transport += (p.End - p.Start) - (s.End - s.Start)
			n++
		}
	}
	if n > 0 {
		r.set("service.transport_ms", ms(transport/time.Duration(n)), "ms")
	}
}

// heapSampler tracks the live heap's high-water mark in the traced run.
type heapSampler struct {
	once  sync.Once
	stopc chan struct{}
	peak  chan float64
	last  float64
}

func startHeapSampler(on bool) *heapSampler {
	h := &heapSampler{}
	if !on {
		return h
	}
	h.stopc, h.peak = make(chan struct{}), make(chan float64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				h.peak <- float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the peak in
// MB; later calls return the same value.
func (h *heapSampler) stop() float64 {
	h.once.Do(func() {
		if h.stopc != nil {
			close(h.stopc)
			h.last = <-h.peak
		}
	})
	return h.last
}

// benchSpec is the part of BENCHMARK.json the program reports against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// report prints the host fingerprint and every metric with its unit, then
// the result object as the last line. The metric list is BENCHMARK.json's:
// end_to_end for the untraced run, per_layer for the traced one.
func report(w io.Writer, o options, r *result) error {
	data, err := os.ReadFile(o.spec)
	if err != nil {
		return fmt.Errorf("reading the metric list: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("decoding %s: %w", o.spec, err)
	}
	fmt.Fprintln(w, fingerprint())
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%t attempted=%d failed=%d cancels=%g stages: %s\n",
		o.workload, o.seed, o.seconds.Seconds(), o.trace, r.attempted, r.failed, r.counters["service.cancels"],
		strings.Join(r.stages, ", "))
	list, other := spec.EndToEnd, spec.PerLayer
	if o.trace {
		list, other = other, list
	}
	out := map[string]metric{}
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
		fmt.Fprintf(w, "  %-44s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	if o.trace {
		fmt.Fprintln(w, "end-to-end numbers of this traced run (report the untraced run's):")
		for _, m := range other {
			v := r.metrics[m.Name]
			fmt.Fprintf(w, "  %-44s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// fingerprint names the host and the build that produced a result.
func fingerprint() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	rev, modified := "none", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, modified)
}

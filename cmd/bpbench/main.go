// Command bpbench records the simulator's performance trajectory: it runs
// the core throughput, per-cycle step, power-fold, and predictor
// microbenchmarks plus every harness-driven figure (Quick windows) and
// writes the numbers to BENCH_results.json so later changes can be diffed
// against them.
//
// Usage:
//
//	bpbench                      # write BENCH_results.json in the cwd
//	bpbench -o /tmp/bench.json -parallel 4
//	bpbench -skip-figures        # microbenchmarks only (seconds, not minutes)
//	bpbench -skip-figures -compare BENCH_results.json
//	                             # fail (exit 1) if a microbenchmark regressed
//	                             # more than -threshold vs the old file
//	bpbench -cpuprofile cpu.out -memprofile mem.out -skip-figures
//
// -compare checks only the microbenchmarks (throughput, step, end_cycle,
// predictor lookups, kernel lookups, the SoA commit scan): figure wall times
// include harness scheduling and vary with machine load, so they are
// recorded but never gated on, and checkpoint/restore is allocation-bound
// and likewise only recorded.
//
// -date 2026-08-08 appends a {date, ns/inst} point to the output file's
// throughput_history array, keeping the optimization trajectory
// machine-readable. The date is explicit because bpbench never reads the
// wall clock (the determinism lint bans time.Now outside tests).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/power"
	"bpredpower/internal/workload"
)

// result is one benchmark's measurement, averaged over its iterations.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	WallSeconds float64 `json:"wall_seconds"`
	Iterations  int     `json:"iterations"`
}

type report struct {
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Parallel     int    `json:"parallel"`
	WarmupInsts  uint64 `json:"warmup_insts"`
	MeasureInsts uint64 `json:"measure_insts"`
	// Throughput is the full-pipeline simulation rate; NsPerOp is ns per
	// committed instruction and AllocsPerOp must stay 0 in steady state.
	Throughput result `json:"throughput"`
	// Step is one warm pipeline cycle (fetch through commit plus the power
	// fold); EndCycle is the power fold alone, per accounting mode.
	Step            result            `json:"step"`
	EndCycle        map[string]result `json:"end_cycle"`
	PredictorLookup map[string]result `json:"predictor_lookup"`
	// KernelLookup is the same predict+train round as PredictorLookup but
	// through the devirtualized bpred.Funcs bindings the simulator actually
	// calls — the shared branch-free counter kernel with dispatch resolved
	// once at construction.
	KernelLookup map[string]result `json:"kernel_lookup"`
	// SoACommitScan is the branch-free done-bitmap scan that bounds every
	// commit cycle, measured in isolation on a warm pipeline.
	SoACommitScan result `json:"soa_commit_scan"`
	// CheckpointRestore is one full Checkpoint plus Restore of a warm
	// simulator — the per-boundary hand-off cost of a segmented run.
	CheckpointRestore result `json:"checkpoint_restore"`
	// RepriceFold is one pricing-key fold: rebuilding the unit set for a
	// power configuration and repricing a cached activity vector through it.
	// This bounds the per-variant cost of activity/price decoupling — it
	// must stay orders of magnitude below a full simulation.
	RepriceFold result            `json:"reprice_fold"`
	Figures     map[string]result `json:"figures,omitempty"`
	// ThroughputHistory is the dated ns/inst trajectory across optimization
	// passes, carried forward from the previous report at the output path. A
	// new point is appended only when -date supplies an explicit date.
	ThroughputHistory []histEntry `json:"throughput_history,omitempty"`
}

// histEntry is one dated point of the throughput trajectory.
type histEntry struct {
	Date      string  `json:"date"`
	NsPerInst float64 `json:"ns_per_inst"`
	Note      string  `json:"note,omitempty"`
}

// scanSink keeps the commit-scan microbenchmark live so the compiler cannot
// dead-code-eliminate the loop body.
var scanSink int

// measure runs f under the testing harness (no wall-clock access of our
// own: the determinism lint bans time.Now outside tests, and
// testing.Benchmark hands us the elapsed time and allocation counts).
func measure(f func(b *testing.B)) result {
	r := testing.Benchmark(f)
	if r.N == 0 {
		return result{}
	}
	return result{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		WallSeconds: r.T.Seconds(),
		Iterations:  r.N,
	}
}

// measureBest is measure repeated three times, keeping the fastest run.
// The minimum is the standard low-noise estimator for microbenchmarks on a
// shared box: interference only ever adds time, so the smallest observation
// is the closest to the code's true cost. Gated entries use this; figure
// wall times (not gated, 3x too expensive) use plain measure.
func measureBest(f func(b *testing.B)) result {
	best := measure(f)
	for i := 0; i < 2; i++ {
		if r := measure(f); r.Iterations > 0 && r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	return best
}

// startCPUProfile starts a CPU profile written to path and returns the
// function that stops it and closes the file; an empty path profiles
// nothing. Errors are fatal.
func startCPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func main() {
	out := flag.String("o", "BENCH_results.json", "output file")
	parallel := flag.Int("parallel", 0, "figure simulation workers (0 = GOMAXPROCS)")
	skipFigures := flag.Bool("skip-figures", false, "skip the per-figure wall-time runs")
	warm := flag.Uint64("warmup", experiments.Quick.WarmupInsts, "figure warm-up instructions")
	meas := flag.Uint64("measure", experiments.Quick.MeasureInsts, "figure measured instructions")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the throughput run alone (no other microbenchmark or figure) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the microbenchmarks) to this file")
	compare := flag.String("compare", "", "old BENCH_results.json to diff against; exit 1 on microbenchmark regressions beyond -threshold")
	threshold := flag.Float64("threshold", 0.25, "relative ns/op regression tolerated by -compare (0.25 = 25%)")
	date := flag.String("date", "", "append a {date, ns/inst} entry to the output's throughput_history; the date is explicit (e.g. 2026-08-08) because bpbench never reads the wall clock")
	note := flag.String("note", "", "annotation stored with the -date history entry")
	flag.Parse()

	rc := experiments.RunConfig{WarmupInsts: *warm, MeasureInsts: *meas}
	rep := report{
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Parallel:        *parallel,
		WarmupInsts:     rc.WarmupInsts,
		MeasureInsts:    rc.MeasureInsts,
		EndCycle:        map[string]result{},
		PredictorLookup: map[string]result{},
		KernelLookup:    map[string]result{},
	}

	gzip, err := workload.ByName("164.gzip")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog := gzip.Program()

	stopProfile := startCPUProfile(*cpuProfile)
	rep.Throughput = measureBest(func(b *testing.B) {
		sim := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		sim.Run(20000) // warm
		b.ReportAllocs()
		b.ResetTimer()
		sim.Run(uint64(b.N))
	})
	stopProfile()
	fmt.Printf("throughput        %8.1f ns/inst  %d allocs/op\n",
		rep.Throughput.NsPerOp, rep.Throughput.AllocsPerOp)

	rep.Step = measureBest(func(b *testing.B) {
		sim := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		sim.Run(20000) // warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.StepCycle()
		}
	})
	fmt.Printf("step              %8.1f ns/cycle %d allocs/op\n",
		rep.Step.NsPerOp, rep.Step.AllocsPerOp)

	for _, mode := range []power.AccountingMode{power.AccountDeferred, power.AccountPerCycle, power.AccountCrossCheck} {
		mode := mode
		r := measureBest(func(b *testing.B) {
			m := power.NewMeter(1.25e-9)
			m.Accounting = mode
			units := make([]*power.Unit, 34)
			for i := range units {
				//bplint:allow unitsource -- synthetic micro-bench units, not part of the modeled machine
				units[i] = m.Add(power.NewFixedUnit(fmt.Sprintf("u%02d", i), power.GroupALU, 1e-10, 2))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < len(units); j += 3 {
					units[j].Read(1)
				}
				m.EndCycle()
			}
		})
		rep.EndCycle[mode.String()] = r
		fmt.Printf("end_cycle %-7s %8.2f ns/op    %d allocs/op\n", mode.String(), r.NsPerOp, r.AllocsPerOp)
	}

	for _, spec := range []bpred.Spec{bpred.Bim4k, bpred.Gsh16k12, bpred.PAs4k16k8, bpred.Hybrid1} {
		spec := spec
		r := measureBest(func(b *testing.B) {
			p := spec.Build()
			var pr bpred.Prediction
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc := uint64(i*4) & 0xffff
				pr = p.Lookup(pc)
				p.Update(&pr, i&3 != 0)
			}
		})
		rep.PredictorLookup[spec.Name] = r
		fmt.Printf("lookup %-11s %8.2f ns/op    %d allocs/op\n", spec.Name, r.NsPerOp, r.AllocsPerOp)
	}

	for _, spec := range []bpred.Spec{bpred.Bim4k, bpred.Gsh16k12, bpred.PAs4k16k8, bpred.Hybrid1, bpred.TAGE64k, bpred.Perceptron64k} {
		spec := spec
		r := measureBest(func(b *testing.B) {
			d := bpred.Devirt(spec.Build())
			var pr bpred.Prediction
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc := uint64(i*4) & 0xffff
				pr = d.Lookup(pc)
				d.Update(&pr, i&3 != 0)
			}
		})
		rep.KernelLookup[spec.Name] = r
		fmt.Printf("kernel %-14s %8.2f ns/op    %d allocs/op\n", spec.Name, r.NsPerOp, r.AllocsPerOp)
	}

	rep.SoACommitScan = measureBest(func(b *testing.B) {
		sim := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		sim.Run(20000) // warm: a populated RUU with an in-flight done bitmap
		defer sim.Release()
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			n += sim.CommitScanLen()
		}
		scanSink = n
	})
	fmt.Printf("soa_commit_scan   %8.2f ns/op    %d allocs/op\n",
		rep.SoACommitScan.NsPerOp, rep.SoACommitScan.AllocsPerOp)

	rep.CheckpointRestore = measureBest(func(b *testing.B) {
		src := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		src.Run(20000) // warm: checkpoint a machine with real in-flight state
		dst := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		defer src.Release()
		defer dst.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.Restore(src.Checkpoint())
		}
	})
	fmt.Printf("checkpoint        %8.2f ns/op    %d allocs/op\n",
		rep.CheckpointRestore.NsPerOp, rep.CheckpointRestore.AllocsPerOp)

	rep.RepriceFold = measureBest(func(b *testing.B) {
		sim := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		sim.Run(6000)
		rec := experiments.ActivityRecord{Run: experiments.Run{Benchmark: gzip.Name}, Activity: sim.Meter().Activity()}
		sim.Release()
		opt := cpu.Options{Predictor: bpred.Hybrid1, BankedPredictor: true, ClockGating: power.CC1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Reprice(rec, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	fmt.Printf("reprice_fold      %8.2f ns/op    %d allocs/op\n",
		rep.RepriceFold.NsPerOp, rep.RepriceFold.AllocsPerOp)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}

	if !*skipFigures {
		rep.Figures = map[string]result{}
		figures := []struct {
			name string
			fn   func(*experiments.Harness, io.Writer)
		}{
			{"Table2", experiments.Table2},
			{"Figure2", experiments.Figure2},
			{"Figure5", experiments.Figure5},
			{"Figure6", experiments.Figure6},
			{"Figure7", experiments.Figure7},
			{"Figure8", experiments.Figure8},
			{"Figure9", experiments.Figure9},
			{"Figure10", experiments.Figure10},
			{"Figures12And13", experiments.Figures12And13},
			{"Figure14", experiments.Figure14},
			{"Figures16And17", experiments.Figures16And17},
			{"Figure19", experiments.Figure19},
		}
		for _, fig := range figures {
			fig := fig
			// A fresh harness per iteration measures full regeneration, not
			// cache hits (matching bench_test.go).
			r := measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h := experiments.NewHarness(rc)
					h.Parallel = *parallel
					fig.fn(h, io.Discard)
				}
			})
			rep.Figures[fig.name] = r
			fmt.Printf("figure %-14s %8.2f s/run\n", fig.name, r.NsPerOp/1e9)
		}
	}

	// Carry the trajectory forward from the previous report at the output
	// path, then append the current throughput when -date names a point.
	if prev, err := os.ReadFile(*out); err == nil {
		var old report
		if json.Unmarshal(prev, &old) == nil {
			rep.ThroughputHistory = old.ThroughputHistory
		}
	}
	if *date != "" {
		rep.ThroughputHistory = append(rep.ThroughputHistory, histEntry{
			Date:      *date,
			NsPerInst: rep.Throughput.NsPerOp,
			Note:      *note,
		})
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *compare != "" {
		if !compareReports(*compare, rep, *threshold) {
			os.Exit(1)
		}
	}
}

// compareReports diffs the new microbenchmark numbers against the report in
// oldPath, printing a delta line per entry. It returns false when any entry
// present in both reports got slower by more than threshold (relative) and
// by more than 5 ns (absolute — few-ns deltas on small loops are layout and
// scheduler jitter, not regressions), or when a previously allocation-free
// entry now allocates.
func compareReports(oldPath string, newRep report, threshold float64) bool {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpbench: -compare: %v\n", err)
		return false
	}
	var oldRep report
	if err := json.Unmarshal(data, &oldRep); err != nil {
		fmt.Fprintf(os.Stderr, "bpbench: -compare: parsing %s: %v\n", oldPath, err)
		return false
	}

	type entry struct {
		name     string
		old, new result
	}
	entries := []entry{
		{"throughput", oldRep.Throughput, newRep.Throughput},
	}
	if oldRep.Step.Iterations > 0 {
		entries = append(entries, entry{"step", oldRep.Step, newRep.Step})
	}
	appendMap := func(prefix string, oldM, newM map[string]result) {
		keys := make([]string, 0, len(oldM))
		for k := range oldM { //bplint:allow maprange -- keys are sorted before any order-dependent use
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if n, ok := newM[k]; ok {
				entries = append(entries, entry{prefix + k, oldM[k], n})
			}
		}
	}
	// Only the deferred mode is a production hot path; the eager and
	// cross-check modes exist for validation, and their in-process timings
	// are binary-layout-sensitive (40% swings from unrelated recompiles),
	// so they are reported but not gated.
	if o, ok := oldRep.EndCycle["deferred"]; ok {
		if n, ok := newRep.EndCycle["deferred"]; ok {
			entries = append(entries, entry{"end_cycle/deferred", o, n})
		}
	}
	appendMap("lookup/", oldRep.PredictorLookup, newRep.PredictorLookup)
	appendMap("kernel/", oldRep.KernelLookup, newRep.KernelLookup)
	if oldRep.SoACommitScan.Iterations > 0 {
		entries = append(entries, entry{"soa_commit_scan", oldRep.SoACommitScan, newRep.SoACommitScan})
	}
	// CheckpointRestore is allocation-bound (deep state copies) and swings
	// with heap layout, so it is recorded but not gated.
	if oldRep.RepriceFold.Iterations > 0 {
		entries = append(entries, entry{"reprice_fold", oldRep.RepriceFold, newRep.RepriceFold})
	}

	ok := true
	fmt.Printf("compare vs %s (threshold %.0f%%):\n", oldPath, threshold*100)
	for _, e := range entries {
		if e.old.Iterations == 0 || e.old.NsPerOp <= 0 {
			continue
		}
		delta := e.new.NsPerOp/e.old.NsPerOp - 1
		verdict := "ok"
		switch {
		// The absolute floor keeps the smallest entries (the ~3 ns commit
		// scan, the ~17 ns deferred fold and table lookups) from tripping
		// the relative gate on binary-layout and scheduler jitter, which is
		// several ns regardless of loop cost on this class of box. A real
		// regression in those kernels still shows up here through the
		// end-to-end throughput and step entries, where 15% is far above
		// the floor.
		case delta > threshold && e.new.NsPerOp-e.old.NsPerOp > 5.0:
			verdict = "REGRESSION"
			ok = false
		case e.old.AllocsPerOp == 0 && e.new.AllocsPerOp > 0:
			verdict = "ALLOC REGRESSION"
			ok = false
		case delta < -0.05:
			verdict = "faster"
		}
		fmt.Printf("  %-22s %9.2f -> %9.2f ns/op  %+6.1f%%  %s\n",
			e.name, e.old.NsPerOp, e.new.NsPerOp, delta*100, verdict)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bpbench: performance regression beyond threshold")
	}
	return ok
}

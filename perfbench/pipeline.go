package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"bpredpower/internal/bpred"
	"bpredpower/internal/btb"
	"bpredpower/internal/cache"
	"bpredpower/internal/config"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/isa"
	"bpredpower/internal/power"
	"bpredpower/internal/program"
	"bpredpower/internal/trace"
	"bpredpower/internal/workload"
)

// The pipeline workload's programs: gzip fetches 1.5-1.8 instructions per
// committed one (wrong-path heavy), vortex is predictable and call-heavy
// (BTB/RAS), swim is memory-bound (caches and stall cycles dominate).
var pipelineBenches = []string{"164.gzip", "255.vortex", "171.swim"}

// pipelinePreds spans a small bimodal, the Alpha 21264 hybrid and a modern
// tagged predictor.
var pipelinePreds = []bpred.Spec{bpred.Bim4k, bpred.Hybrid1, bpred.TAGE64k}

// pair is one (program, predictor) simulator of the pipeline stage. Every
// measurement window restores the post-warm-up checkpoint, so each window
// simulates the identical instruction stream and its Stats + Activity digest
// can be checked against the recorded one.
type pair struct {
	name string // "<bench>.<predictor>"
	spec bpred.Spec
	sim  *cpu.Sim
	warm *cpu.Checkpoint
}

// pipelineImages generates the pipeline programs, timing each image.
func pipelineImages(tr *tracer, parent uint64, rec *result) ([]*program.Program, error) {
	progs := make([]*program.Program, len(pipelineBenches))
	for i, name := range pipelineBenches {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		sp := tr.start("program.generate", parent, "")
		t0 := now()
		progs[i] = b.Program()
		rec.sample("program.gen_ms", ms(since(t0)))
		sp.end()
	}
	return progs, nil
}

// newPairs constructs one simulator per (program, predictor), timing
// cpu.MustNew.
func newPairs(progs []*program.Program, tr *tracer, parent uint64, rec *result) []*pair {
	var pairs []*pair
	for i, p := range progs {
		for _, spec := range pipelinePreds {
			sp := tr.start("cpu.new", parent, "")
			t0 := now()
			sim := cpu.MustNew(p, cpu.Options{Predictor: spec})
			rec.sample("cpu.new_ms", ms(since(t0)))
			sp.end()
			pairs = append(pairs, &pair{name: pipelineBenches[i] + "." + spec.Name, spec: spec, sim: sim})
		}
	}
	return pairs
}

// warmPairs runs each simulator's warm-up and keeps the warm checkpoint.
func warmPairs(pairs []*pair, warmup uint64) {
	for _, pr := range pairs {
		pr.sim.Run(warmup)
		pr.warm = pr.sim.Checkpoint()
	}
}

func releasePairs(pairs []*pair) {
	for _, pr := range pairs {
		pr.sim.Release()
	}
}

// simDigest fingerprints everything a window produced: the full Stats
// (unexported fields included) and the meter's activity export.
func simDigest(sim *cpu.Sim) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v", *sim.Stats(), sim.Meter().Activity())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestKey names a recorded digest: the pair and both window lengths.
func digestKey(pairName string, warmup, window uint64) string {
	return fmt.Sprintf("%s/warm%d/window%d", pairName, warmup, window)
}

// checkDigest compares a window's digest with the recorded one.
func checkDigest(rec *result, recorded map[string]string, key, got string) {
	want, ok := recorded[key]
	rec.check(ok && want == got, "pipeline %s: digest %s, recorded %q", key, got, want)
}

// window is one measurement window of a pair.
type window struct {
	d                 time.Duration
	committed, cycles uint64
}

// pipelineTotals accumulates one or more rounds.
type pipelineTotals struct {
	best        map[string]window // each pair's fastest window
	committed   uint64
	cycles      uint64
	fetched     uint64
	mispredicts uint64
	btbLookups  uint64
	btbHits     uint64
	allocBytes  uint64
}

// pipelineRound runs one measurement window of every pair, in an order
// drawn from rng.
func pipelineRound(pairs []*pair, sz sizes, rng *rand.Rand, tr *tracer, rec *result, tot *pipelineTotals) time.Duration {
	round := tr.start("pipeline.round", 0, "")
	var spent time.Duration
	var committed uint64
	for _, i := range rng.Perm(len(pairs)) {
		pr := pairs[i]
		pr.sim.Restore(pr.warm)
		pr.sim.ResetMeasurement()
		l0, h0, _, _ := pr.sim.BTB().Stats()
		var m0, m1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		sp := tr.start("cpu.run."+pr.name, round.id, "")
		t0 := now()
		pr.sim.Run(sz.windowInsts)
		d := since(t0)
		if tr != nil {
			runtime.ReadMemStats(&m1)
			tot.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		sp.endAt(t0 + d)
		st := pr.sim.Stats()
		l1, h1, _, _ := pr.sim.BTB().Stats()
		checkDigest(rec, recordedDigests, digestKey(pr.name, sz.warmupInsts, sz.windowInsts), simDigest(pr.sim))
		rec.check(!st.CycleLimitHit, "pipeline %s: cycle limit hit", pr.name)

		spent += d
		committed += st.Committed
		tot.cycles += st.Cycles
		tot.fetched += st.Fetched
		tot.mispredicts += st.Mispredicts
		tot.btbLookups += l1 - l0
		tot.btbHits += h1 - h0
		if b, ok := tot.best[pr.name]; !ok || d < b.d {
			tot.best[pr.name] = window{d, st.Committed, st.Cycles}
		}
	}
	round.end()
	tot.committed += committed
	return spent
}

func newPipelineTotals() *pipelineTotals {
	return &pipelineTotals{best: map[string]window{}}
}

// report sets the pipeline metrics. Times are each pair's fastest window:
// every window of a pair simulates the same instructions, so the fastest is
// the one the host slowed least.
func (tot *pipelineTotals) report(rec *result) {
	var best window
	for name, w := range tot.best {
		rec.set("cpu.ns_per_inst."+name, float64(w.d)/float64(w.committed), "ns/inst")
		best.d += w.d
		best.committed += w.committed
		best.cycles += w.cycles
	}
	rec.set("sim_ns_per_inst", float64(best.d)/float64(best.committed), "ns/inst")
	rec.set("cpu.ns_per_cycle", float64(best.d)/float64(best.cycles), "ns/cycle")
	rec.set("cpu.fetched_per_committed", float64(tot.fetched)/float64(tot.committed), "ratio")
	rec.set("cpu.alloc_bytes_per_inst", float64(tot.allocBytes)/float64(tot.committed), "B/inst")
	rec.set("bpred.mispredicts_per_kinst", 1000*float64(tot.mispredicts)/float64(tot.committed), "count/kinst")
	rec.set("btb.hit_ratio", float64(tot.btbHits)/float64(tot.btbLookups), "ratio")
}

// The layer probes replay streams taken from the architectural walker
// through one layer at a time, from outside the simulator.

type ctlStep struct {
	pc, next uint64
	taken    bool
}

type memStep struct {
	addr  uint64
	write bool
}

// walkStreams walks p for n instructions and returns its control transfers
// and memory references.
func walkStreams(p *program.Program, n uint64) ([]ctlStep, []memStep) {
	w := program.NewWalker(p)
	var ctl []ctlStep
	var mem []memStep
	for i := uint64(0); i < n; i++ {
		st := w.Step()
		switch st.SI.Class {
		case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn:
			ctl = append(ctl, ctlStep{pc: st.SI.PC, next: st.NextPC, taken: st.Taken})
		case isa.ClassLoad, isa.ClassStore:
			mem = append(mem, memStep{addr: st.MemAddr, write: st.SI.Class == isa.ClassStore})
		}
	}
	return ctl, mem
}

// sink keeps probe loops from being optimized away.
var sink uint64

// layerProbes times the walker, each predictor, the BTB, the data cache
// hierarchy and the TLB on the pipeline programs, and the power fold on the
// pairs' activity.
func layerProbes(progs []*program.Program, pairs []*pair, n uint64, tr *tracer, rec *result) error {
	cfg := config.Default()
	parent := tr.start("probes", 0, "")
	defer parent.end()
	var walkNS, walkN, btbNS, btbOps, cacheNS, tlbNS, memN float64
	var misses, accesses uint64
	predNS := map[string]float64{}
	var branches float64
	for _, p := range progs {
		w := program.NewWalker(p)
		sp := tr.start("program.walk", parent.id, "")
		t0 := now()
		for i := uint64(0); i < n; i++ {
			sink += w.Step().NextPC
		}
		walkNS += float64(since(t0).Nanoseconds())
		walkN += float64(n)
		sp.end()

		var buf bytes.Buffer
		if _, err := trace.Record(p, n, &buf); err != nil {
			return fmt.Errorf("recording branch trace: %w", err)
		}
		brs, err := trace.NewReader(&buf).ReadAll()
		if err != nil {
			return fmt.Errorf("decoding branch trace: %w", err)
		}
		branches += float64(len(brs))
		for _, spec := range pipelinePreds {
			var pred bpred.Predictor = spec.Build()
			sp := tr.start("bpred.replay."+spec.Name, parent.id, "")
			t0 := now()
			for _, b := range brs {
				pr := pred.Lookup(b.PC)
				if pr.Taken != b.Taken {
					pred.Redirect(&pr, b.Taken)
				}
				pred.Update(&pr, b.Taken)
			}
			predNS[spec.Name] += float64(since(t0).Nanoseconds())
			sp.end()
		}

		ctl, mem := walkStreams(p, n)
		bt := btb.New(cfg.BTBEntries, cfg.BTBWays)
		sp = tr.start("btb.replay", parent.id, "")
		t0 = now()
		for _, c := range ctl {
			tgt, _ := bt.Lookup(c.pc)
			sink += tgt
			if c.taken {
				bt.Update(c.pc, c.next)
			}
		}
		btbNS += float64(since(t0).Nanoseconds())
		sp.end()
		lookups, _, _, updates := bt.Stats()
		btbOps += float64(lookups + updates)

		memory := &cache.MainMemory{Latency: cfg.MemLatency}
		l2 := cache.New(cfg.L2, memory)
		l1 := cache.New(cfg.DL1, l2)
		sp = tr.start("cache.replay", parent.id, "")
		t0 = now()
		for _, m := range mem {
			sink += uint64(l1.Access(m.addr, m.write))
		}
		cacheNS += float64(since(t0).Nanoseconds())
		sp.end()
		st := l1.Stats()
		misses += st.Misses
		accesses += st.Accesses
		l1.Free()
		l2.Free()

		tlb := cache.NewTLB(cfg.TLBEntries, cfg.PageBytes, cfg.TLBMissPenalty)
		sp = tr.start("cache.tlb_replay", parent.id, "")
		t0 = now()
		for _, m := range mem {
			sink += uint64(tlb.Access(m.addr))
		}
		tlbNS += float64(since(t0).Nanoseconds())
		sp.end()
		tlb.Free()
		memN += float64(len(mem))
	}
	rec.set("program.walk_ns_per_inst", walkNS/walkN, "ns/inst")
	for _, spec := range pipelinePreds {
		rec.set("bpred.ns_per_branch."+spec.Name, predNS[spec.Name]/branches, "ns/branch")
	}
	rec.set("btb.ns_per_op", btbNS/btbOps, "ns/op")
	rec.set("cache.ns_per_access", cacheNS/memN, "ns/access")
	rec.set("cache.tlb_ns_per_access", tlbNS/memN, "ns/access")
	rec.set("cache.l1d_miss_ratio", float64(misses)/float64(accesses), "ratio")
	return powerProbes(pairs, tr, parent.id, rec)
}

// pricingVariants are the seven non-base pricing keys of the gating-style
// study: banked or flat arrays under each conditional-clocking style.
func pricingVariants(spec bpred.Spec) []cpu.Options {
	var out []cpu.Options
	for _, banked := range []bool{false, true} {
		for _, style := range []power.GatingStyle{power.CC0, power.CC1, power.CC2, power.CC3} {
			if !banked && style == power.CC3 {
				continue
			}
			out = append(out, cpu.Options{Predictor: spec, BankedPredictor: banked, ClockGating: style})
		}
	}
	return out
}

// powerProbes times the activity export of each pair's last window, then
// builds a meter for and folds that activity under every pricing variant.
func powerProbes(pairs []*pair, tr *tracer, parent uint64, rec *result) error {
	var export, newMeter, fold []float64
	for _, pr := range pairs {
		sp := tr.start("power.activity_export", parent, "")
		t0 := now()
		act := pr.sim.Meter().Activity()
		export = append(export, us(since(t0)))
		sp.end()
		ar := experiments.ActivityRecord{Run: experiments.Run{Benchmark: pr.name}, Activity: act}
		for _, opt := range pricingVariants(pr.spec) {
			sp := tr.start("power.new_meter", parent, "")
			t0 := now()
			if _, err := cpu.NewMeter(opt); err != nil {
				return fmt.Errorf("building meter: %w", err)
			}
			newMeter = append(newMeter, us(since(t0)))
			sp.end()
			sp = tr.start("power.fold", parent, "")
			t0 = now()
			r, err := experiments.Reprice(ar, opt)
			fold = append(fold, us(since(t0)))
			sp.end()
			rec.check(err == nil && r.TotalEnergy > 0, "pipeline %s: reprice failed: %v", pr.name, err)
		}
	}
	rec.set("power.activity_export_us", median(export), "us")
	rec.set("power.new_meter_us", median(newMeter), "us")
	rec.set("power.fold_us", median(fold), "us")
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

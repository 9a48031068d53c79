package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/config"
	"bpredpower/internal/gating"
	"bpredpower/internal/power"
	"bpredpower/internal/ppd"
	"bpredpower/internal/program"
)

// memBoundProgram is testProgram's code shape over a data footprint far
// larger than the L2, so loads regularly wait out the memory latency and the
// pipeline drains into long idle stretches, as SPECfp programs do.
func memBoundProgram(seed uint64) *program.Program {
	return program.MustGenerate(program.Spec{
		Name:         "idletest",
		Seed:         seed,
		NumBlocks:    400,
		NumFuncs:     8,
		MeanBlockLen: 10,
		CondFrac:     0.5,
		JumpFrac:     0.08,
		CallFrac:     0.05,
		LoadFrac:     0.30,
		StoreFrac:    0.10,
		FPFrac:       0.30,
		MultFrac:     0.05,
		DivFrac:      0.01,
		DepMean:      4,
		Behaviors: []program.BehaviorWeight{
			{Kind: program.BehaviorBiased, Weight: 0.45, PTaken: 0.9},
			{Kind: program.BehaviorLoop, Weight: 0.25, TripMean: 12},
			{Kind: program.BehaviorGlobalCorrelated, Weight: 0.15, HistSpan: 8},
			{Kind: program.BehaviorRandom, Weight: 0.15},
		},
		Regions: []program.MemRegion{
			{Size: 1 << 16, Stride: 8},
			{Size: 1 << 26, Stride: 4096, RandomFrac: 0.5},
		},
	})
}

// idleGrid is the option space the idle-skip equivalence is checked over.
var (
	idlePPDs   = []ppd.Scenario{ppd.Off, ppd.Scenario1, ppd.Scenario2}
	idleGates  = []gating.Config{{}, {Enabled: true, Threshold: 0}, {Enabled: true, Threshold: 1, Estimator: gating.EstimatorJRS}, {Enabled: true, Threshold: 0, Estimator: gating.EstimatorPerfect}}
	idleStyles = []power.GatingStyle{power.CC3, power.CC1}
	idleSeeds  = []uint64{3, 8}
	// idleMachines adds small-queue shapes, so stretches where a full LSQ
	// or RUU blocks dispatch come up often.
	idleMachines = []struct {
		name string
		cfg  func() config.Processor
	}{
		{"default", config.Default},
		{"lsq6", func() config.Processor { c := config.Default(); c.LSQSize = 6; return c }},
		{"ruu24", func() config.Processor { c := config.Default(); c.RUUSize = 24; return c }},
	}
)

// idleOptions builds the grid point; ok is false where New rejects the
// combination ("both strong" gating needs a hybrid predictor).
func idleOptions(spec bpred.Spec, pi, gi int, line bool, si int) (Options, bool) {
	g := idleGates[gi]
	if g.Enabled && g.Estimator == gating.EstimatorBothStrong && spec.Kind != bpred.KindHybrid {
		return Options{}, false
	}
	return Options{Predictor: spec, PPD: idlePPDs[pi], Gating: g, LinePredictor: line, ClockGating: idleStyles[si]}, true
}

// stepRun is Run without idle skipping: the same commit target and cycle
// budget, stepping every cycle through the public StepCycle.
func stepRun(s *Sim, n uint64) {
	target := s.Stats().Committed + n
	limit := cycleBudget(s.Cycle(), n)
	for s.Stats().Committed < target && s.Cycle() < limit {
		s.StepCycle()
	}
	if s.Stats().Committed < target {
		s.Stats().CycleLimitHit = true
	}
}

// assertIdentical fails unless two sims agree bit for bit: full Stats, the
// meter's activity export and energy, and the complete machine state.
func assertIdentical(t *testing.T, label string, got, want *Sim) {
	t.Helper()
	if *got.Stats() != *want.Stats() {
		t.Fatalf("%s: stats diverged:\n  got  %+v\n  want %+v", label, *got.Stats(), *want.Stats())
	}
	if ga, wa := got.Meter().Activity(), want.Meter().Activity(); !reflect.DeepEqual(ga, wa) {
		t.Fatalf("%s: activity diverged:\n  got  %+v\n  want %+v", label, ga, wa)
	}
	if got.Meter().Cycles() != got.Stats().Cycles {
		t.Fatalf("%s: meter counts %d cycles, stats %d", label, got.Meter().Cycles(), got.Stats().Cycles)
	}
	if ge, we := got.Meter().TotalEnergy(), want.Meter().TotalEnergy(); ge != we {
		t.Fatalf("%s: total energy %v != %v", label, ge, we)
	}
	if !reflect.DeepEqual(got.Checkpoint(), want.Checkpoint()) {
		t.Fatalf("%s: machine state diverged", label)
	}
}

// checkIdleSkip runs back-to-back windows through Run and through the
// stepping reference and requires identical Stats after each window and
// identical machines at the end. The
// reference also audits the idle predicate on every cycle, not only after
// the no-work cycles where Run consults it: whenever idleCycles claims a
// stretch, each of its cycles must step with no stage doing any work. It
// returns how many cycles were claimed idle.
func checkIdleSkip(t *testing.T, label string, prog *program.Program, opt Options, windows ...uint64) (idle uint64) {
	t.Helper()
	run := MustNew(prog, opt)
	ref := MustNew(prog, opt)
	defer run.Release()
	defer ref.Release()
	for i, n := range windows {
		run.Run(n)
		target := ref.Stats().Committed + n
		limit := cycleBudget(ref.Cycle(), n)
		for ref.Stats().Committed < target && ref.Cycle() < limit {
			k := ref.idleCycles(min(runBlockCycles, limit-ref.Cycle()))
			for c := uint64(0); c < k; c++ {
				if ref.step() {
					t.Fatalf("%s: cycle %d of a %d-cycle idle stretch did work", label, c, k)
				}
			}
			idle += k
			if k == 0 {
				ref.StepCycle()
			}
		}
		if ref.Stats().Committed < target {
			ref.Stats().CycleLimitHit = true
		}
		if *run.Stats() != *ref.Stats() {
			t.Fatalf("%s window %d: stats diverged:\n  got  %+v\n  want %+v", label, i, *run.Stats(), *ref.Stats())
		}
	}
	assertIdentical(t, label, run, ref)
	return idle
}

// TestIdleSkipMatchesStepping is the equivalence proof for Run's idle-cycle
// skipping over the option grid: every PPD scenario, gating estimator, line
// predictor setting, two clock-gating styles and two program seeds, with
// the registry predictors and the machine shapes rotated through the grid
// so each appears under several combinations.
func TestIdleSkipMatchesStepping(t *testing.T) {
	specs := bpred.AllConfigs()
	var idle, cases uint64
	k := 0
	for _, seed := range idleSeeds {
		prog := memBoundProgram(seed)
		for pi := range idlePPDs {
			for gi := range idleGates {
				for _, line := range []bool{false, true} {
					for si := range idleStyles {
						spec := specs[k%len(specs)]
						m := idleMachines[k%len(idleMachines)]
						k++
						opt, ok := idleOptions(spec, pi, gi, line, si)
						if !ok {
							opt, _ = idleOptions(bpred.Hybrid1, pi, gi, line, si)
						}
						opt.Config = m.cfg()
						label := fmt.Sprintf("seed%d/%s/%s/ppd%d/gate%d/line%v/%s", seed, m.name, opt.Predictor.Name, pi, gi, line, idleStyles[si])
						idle += checkIdleSkip(t, label, prog, opt, 1000, 1500)
						cases++
					}
				}
			}
		}
	}
	if idle < cases*100 {
		t.Fatalf("only %d idle cycles over %d cases: the grid does not exercise the skip", idle, cases)
	}
}

// TestIdleSkipEagerAccountingSteps pins that the eager accounting modes never
// skip: they stay the cycle-by-cycle reference for the deferred kernel.
func TestIdleSkipEagerAccountingSteps(t *testing.T) {
	for _, mode := range []power.AccountingMode{power.AccountPerCycle, power.AccountCrossCheck} {
		s := MustNew(memBoundProgram(3), Options{Accounting: mode})
		for i := 0; i < 5000; i++ {
			if k := s.idleCycles(runBlockCycles); k != 0 {
				t.Fatalf("accounting mode %v: idleCycles = %d, want 0", mode, k)
			}
			s.StepCycle()
		}
		s.Release()
	}
	checkIdleSkip(t, "cross-check", memBoundProgram(3), Options{Accounting: power.AccountCrossCheck}, 3000)
}

// TestIdleSkipHonoursBlockCountdown drives runBlock with short countdowns
// that end inside idle stretches: each call must stop on exactly the cycle
// the stepping loop would, so Run's cycle budget and CycleLimitHit behave
// as before.
func TestIdleSkipHonoursBlockCountdown(t *testing.T) {
	prog := memBoundProgram(8)
	run := MustNew(prog, Options{})
	ref := MustNew(prog, Options{})
	defer run.Release()
	defer ref.Release()
	const never = ^uint64(0)
	for _, block := range []uint64{1, 2, 3, 7, 13, 37, 64, 101, 250} {
		for rep := 0; rep < 20; rep++ {
			start := run.Cycle()
			run.runBlock(block, never)
			for i := uint64(0); i < block; i++ {
				ref.StepCycle()
			}
			if got := run.Cycle() - start; got != block {
				t.Fatalf("runBlock(%d) advanced %d cycles", block, got)
			}
		}
		assertIdentical(t, fmt.Sprintf("block %d", block), run, ref)
	}
}

// TestIdleSkipCheckpointMidStretch checkpoints a machine in the middle of an
// idle stretch, restores it into a fresh Sim, and requires Run from there to
// finish exactly like the stepping reference.
func TestIdleSkipCheckpointMidStretch(t *testing.T) {
	prog := memBoundProgram(3)
	opt := Options{Predictor: bpred.Gsh16k12, PPD: ppd.Scenario1}
	ref := MustNew(prog, opt)
	defer ref.Release()
	stepRun(ref, 2000)
	// Step into a stretch at least four cycles long and stop half-way.
	for ref.idleCycles(runBlockCycles) < 4 {
		ref.StepCycle()
	}
	for k := ref.idleCycles(runBlockCycles) / 2; k > 0; k-- {
		ref.StepCycle()
	}
	if ref.idleCycles(runBlockCycles) == 0 {
		t.Fatal("not inside an idle stretch")
	}
	cp := ref.Checkpoint()

	resumed := MustNew(prog, opt)
	defer resumed.Release()
	resumed.Restore(cp)
	resumed.Run(3000)
	stepRun(ref, 3000)
	assertIdentical(t, "resumed mid-stretch", resumed, ref)
}

// FuzzIdleSkip explores the same equivalence over arbitrary grid points and
// window lengths.
func FuzzIdleSkip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0), uint16(300), uint16(700))
	f.Add(uint8(3), uint8(2), uint8(1), true, uint8(1), uint8(1), uint8(1), uint16(1), uint16(2000))
	f.Add(uint8(7), uint8(1), uint8(3), false, uint8(0), uint8(2), uint8(1), uint16(1200), uint16(5))
	specs := bpred.AllConfigs()
	progs := make([]*program.Program, len(idleSeeds))
	for i, seed := range idleSeeds {
		progs[i] = memBoundProgram(seed)
	}
	f.Fuzz(func(t *testing.T, predIdx, pi, gi uint8, line bool, si, mi, seedIdx uint8, n1, n2 uint16) {
		spec := specs[int(predIdx)%len(specs)]
		opt, ok := idleOptions(spec, int(pi)%len(idlePPDs), int(gi)%len(idleGates), line, int(si)%len(idleStyles))
		if !ok {
			t.Skip("both-strong gating needs a hybrid predictor")
		}
		opt.Config = idleMachines[int(mi)%len(idleMachines)].cfg()
		checkIdleSkip(t, "fuzz", progs[int(seedIdx)%len(progs)], opt, uint64(n1%4096), uint64(n2%4096))
	})
}

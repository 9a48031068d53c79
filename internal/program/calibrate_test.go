package program

import (
	"testing"

	"bpredpower/internal/isa"
)

func calSpec(seed uint64, mix *MixTargets) Spec {
	return Spec{
		Name:         "caltest",
		Seed:         seed,
		NumBlocks:    700,
		NumFuncs:     10,
		MeanBlockLen: 9,
		CondFrac:     0.6,
		JumpFrac:     0.1,
		CallFrac:     0.05,
		LoadFrac:     0.2,
		StoreFrac:    0.08,
		DepMean:      8,
		Behaviors: []BehaviorWeight{
			{Kind: BehaviorBiased, Weight: 0.5, PTaken: 0.995},
			{Kind: BehaviorLoop, Weight: 0.02, TripMean: 16},
			{Kind: BehaviorGlobalCorrelated, Weight: 0.2, HistSpan: 6},
			{Kind: BehaviorLocalPattern, Weight: 0.08, PatternMaxLen: 6},
			{Kind: BehaviorRandom, Weight: 0.2},
		},
		Regions: []MemRegion{{Size: 1 << 16, Stride: 8}},
		Mix:     mix,
	}
}

func measureMix(p *Program, steps int) (map[BehaviorKind]float64, float64) {
	w := NewWalker(p)
	var conds uint64
	mass := map[BehaviorKind]float64{}
	for i := 0; i < steps; i++ {
		st := w.Step()
		if st.SI.Class == isa.ClassBranch {
			conds++
			mass[p.Sites[st.SI.Site].Kind]++
		}
	}
	for k := range mass {
		mass[k] /= float64(conds)
	}
	return mass, float64(conds) / float64(steps)
}

func TestCalibrationHitsLoopTarget(t *testing.T) {
	mix := &MixTargets{
		Biased: 0.45, Loop: 0.25, Correlated: 0.08, Pattern: 0.05, Random: 0.17,
		PTaken: 0.995, Trip: 16, PatternMaxLen: 6,
	}
	p := MustGenerate(calSpec(42, mix))
	got, _ := measureMix(p, 400000)
	if l := got[BehaviorLoop]; l < mix.Loop-0.10 || l > mix.Loop+0.12 {
		t.Errorf("loop share %.3f, target %.3f", l, mix.Loop)
	}
	// Random + correlated pull accuracy down; make sure they exist at all.
	if got[BehaviorRandom]+got[BehaviorGlobalCorrelated] < 0.05 {
		t.Errorf("unpredictable shares vanished: %v", got)
	}
}

func TestCalibrationDeterministic(t *testing.T) {
	mix := &MixTargets{Biased: 0.5, Loop: 0.2, Correlated: 0.06, Pattern: 0.05, Random: 0.19,
		PTaken: 0.995, Trip: 16}
	a := MustGenerate(calSpec(7, mix))
	b := MustGenerate(calSpec(7, mix))
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs across identical generations", i)
		}
	}
}

func TestCalibrationPreservesValidity(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		mix := &MixTargets{Biased: 0.4, Loop: 0.3, Correlated: 0.1, Pattern: 0.05, Random: 0.15,
			PTaken: 0.995, Trip: 12}
		p := MustGenerate(calSpec(seed, mix))
		if err := p.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// Long walk stays inside the image.
		w := NewWalker(p)
		for i := 0; i < 200000; i++ {
			w.Step()
		}
		if w.Restarts() != 0 {
			t.Errorf("seed %d: %d walker restarts after calibration", seed, w.Restarts())
		}
	}
}

func TestLoopModulesAreSelfTargeting(t *testing.T) {
	mix := &MixTargets{Biased: 0.4, Loop: 0.3, Correlated: 0.05, Pattern: 0.05, Random: 0.2,
		PTaken: 0.995, Trip: 12}
	p := MustGenerate(calSpec(3, mix))
	loops := 0
	for i := range p.Code {
		si := &p.Code[i]
		if si.Class != isa.ClassBranch {
			continue
		}
		s := &p.Sites[si.Site]
		if s.Kind == BehaviorLoop {
			loops++
			if si.Target > si.PC {
				t.Errorf("loop site %d at %#x targets forward (%#x)", s.ID, si.PC, si.Target)
			}
			// Calibrated (hot) modules carry the mix trip count; cold
			// modules keep their generation-time trip.
			if s.TripCount != 12 && s.TripCount != 16 {
				t.Errorf("loop site %d trip %d, want 12 (calibrated) or 16 (static)", s.ID, s.TripCount)
			}
		}
	}
	if loops == 0 {
		t.Error("no active loop modules after calibration")
	}
}

func TestDormantModulesAreNearNeverTaken(t *testing.T) {
	mix := &MixTargets{Biased: 0.6, Loop: 0.05, Correlated: 0.05, Pattern: 0.05, Random: 0.25,
		PTaken: 0.995, Trip: 12}
	p := MustGenerate(calSpec(5, mix))
	dormant := 0
	for i := range p.Code {
		si := &p.Code[i]
		if si.Class != isa.ClassBranch || si.Target > si.PC {
			continue
		}
		s := &p.Sites[si.Site]
		if s.Kind == BehaviorBiased {
			dormant++
			// Backward/self-targeting biased sites must be exit-biased —
			// a taken-biased one would spin nearly forever.
			if s.PTaken > 0.5 {
				t.Errorf("backward biased site %d is taken-biased (PTaken %v)", s.ID, s.PTaken)
			}
		}
	}
	if dormant == 0 {
		t.Error("expected some dormant loop modules with a tiny loop target")
	}
}

func TestCorrelatedPairsStructure(t *testing.T) {
	mix := &MixTargets{Biased: 0.4, Loop: 0.1, Correlated: 0.15, Pattern: 0.05, Random: 0.3,
		PTaken: 0.995, Trip: 12}
	p := MustGenerate(calSpec(9, mix))
	repeaters := 0
	for i := range p.Sites {
		s := &p.Sites[i]
		if s.Kind != BehaviorGlobalCorrelated {
			continue
		}
		repeaters++
		if s.HistMask == 0 {
			t.Errorf("repeater %d has empty mask", s.ID)
		}
		if s.Invert {
			t.Errorf("repeater %d inverted; repeaters are uniformly non-inverted", s.ID)
		}
	}
	if repeaters == 0 {
		t.Error("no correlated repeaters generated")
	}
}

func TestMixedPolarityBiasedSites(t *testing.T) {
	p := MustGenerate(calSpec(11, &MixTargets{
		Biased: 0.7, Loop: 0.05, Correlated: 0.02, Pattern: 0.03, Random: 0.2,
		PTaken: 0.995, Trip: 12,
	}))
	taken, notTaken := 0, 0
	for i := range p.Sites {
		s := &p.Sites[i]
		if s.Kind != BehaviorBiased || s.PTaken == ModuleDormantPTaken {
			continue
		}
		if s.PTaken > 0.5 {
			taken++
		} else {
			notTaken++
		}
	}
	if taken == 0 || notTaken == 0 {
		t.Errorf("biased polarity not mixed: %d taken-biased, %d not-taken-biased", taken, notTaken)
	}
}

func TestBiasedPTakenHelper(t *testing.T) {
	if biasedPTaken(0, 0.995) != 0.995 {
		t.Error("even sites should keep p")
	}
	if got := biasedPTaken(1, 0.995); got < 0.004 || got > 0.006 {
		t.Errorf("odd sites should flip polarity, got %v", got)
	}
	if biasedPTaken(2, 0) != 0.95 {
		t.Error("zero p should default")
	}
}

// referenceSiteCounts is the per-instruction oracle for siteCounts: it steps
// a fresh Walker steps times and counts the conditional branches executed
// at each site.
func referenceSiteCounts(p *Program, steps int) []uint64 {
	w := NewWalker(p)
	counts := make([]uint64, len(p.Sites))
	for i := 0; i < steps; i++ {
		st := w.Step()
		if st.SI.Class == isa.ClassBranch {
			counts[st.SI.Site]++
		}
	}
	return counts
}

// checkSiteCounts fails t unless siteCounts matches the oracle on p for a
// budget of steps.
func checkSiteCounts(t testing.TB, p *Program, steps int) {
	t.Helper()
	counts := make([]uint64, len(p.Sites))
	occ := make([]uint64, len(p.Sites))
	siteCounts(p, controlIndex(p.Code), steps, counts, occ)
	want := referenceSiteCounts(p, steps)
	if i := mismatch(counts, want); i >= 0 {
		t.Errorf("%s, %d steps: site %d counted %d times, Walker executed it %d times",
			p.Name, steps, i, counts[i], want[i])
	}
}

// mismatch returns the first index where got and want differ, or -1.
func mismatch(got, want []uint64) int {
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// checkCalibrationRounds replays Generate's calibration of sp and fails t
// unless, in every round, the block walk's counts equal the Walker's on
// the image that round measures.
func checkCalibrationRounds(t testing.TB, sp Spec) {
	t.Helper()
	g, err := newGenerator(sp)
	if err != nil {
		t.Fatal(err)
	}
	m := g.sp.Mix
	if m == nil {
		t.Fatalf("%s: spec has no mix targets", sp.Name)
	}
	nextCtl := controlIndex(g.prog.Code)
	counts := make([]uint64, len(g.prog.Sites))
	occ := make([]uint64, len(g.prog.Sites))
	for round := 0; round < m.rounds(); round++ {
		siteCounts(g.prog, nextCtl, m.steps(), counts, occ)
		want := referenceSiteCounts(g.prog, m.steps())
		if i := mismatch(counts, want); i >= 0 {
			t.Errorf("%s round %d: site %d counted %d times, Walker executed it %d times",
				sp.Name, round, i, counts[i], want[i])
			return
		}
		if !g.reassign(counts, m) {
			break
		}
	}
}

// checkSiteCountBudgets compares siteCounts with the oracle on p at the
// budgets where a block walk could go wrong: none, a single instruction,
// ending inside a block, ending on the instruction just before a block's
// control transfer, and ending exactly on a control transfer.
func checkSiteCountBudgets(t testing.TB, p *Program) {
	t.Helper()
	const horizon = 4096
	w := NewWalker(p)
	ctl := make([]bool, horizon)
	for i := range ctl {
		ctl[i] = w.Step().SI.Class.IsControl()
	}
	first := func(ok func(b int) bool) int {
		for b := 2; b < horizon; b++ {
			if ok(b) {
				return b
			}
		}
		t.Fatalf("%s: no such budget in the first %d steps", p.Name, horizon)
		return 0
	}
	budgets := []int{
		0,
		1,
		first(func(b int) bool { return !ctl[b-1] && !ctl[b] }), // mid-block
		first(func(b int) bool { return !ctl[b-1] && ctl[b] }),  // control just past the budget
		first(func(b int) bool { return ctl[b-1] }),             // ends on a control transfer
	}
	for _, b := range budgets {
		checkSiteCounts(t, p, b)
	}
}

// Hand-built programs for the block walk's edge cases. None of them is a
// valid generated image: each leaves the call/return discipline or the
// image in one way, which Walker.Step survives by its fallbacks.

// handInst returns the instruction at code index i.
func handInst(i int, c isa.Class, target uint64, site int32) isa.StaticInst {
	return isa.StaticInst{PC: handPC(i), Class: c, Target: target, Site: site}
}

// handPC returns the address of code index i.
func handPC(i int) uint64 { return DefaultBase + uint64(i)*isa.InstBytes }

func handProgram(name string, seed uint64, site Site, code ...isa.StaticInst) *Program {
	site.ID = 0
	return &Program{
		Name:    name,
		Seed:    seed,
		Base:    DefaultBase,
		Code:    code,
		Sites:   []Site{site},
		Regions: []MemRegion{{Size: 1 << 12, Stride: 8, RandomFrac: 0.5}},
		Entry:   DefaultBase,
	}
}

// recursiveProgram calls f, which recurses while its loop site is taken:
// trip recursion levels deep, then it unwinds. Deeper than 1024 levels the
// return-address stack is trimmed, so the unwinding runs out of return
// addresses and restarts at the entry.
func recursiveProgram(seed uint64, trip uint32) *Program {
	return handProgram("recursive", seed, Site{Kind: BehaviorLoop, TripCount: trip},
		handInst(0, isa.ClassCall, handPC(2), -1),
		handInst(1, isa.ClassJump, handPC(0), -1),
		handInst(2, isa.ClassIntALU, 0, -1),
		handInst(3, isa.ClassLoad, 0, -1),
		handInst(4, isa.ClassBranch, handPC(6), 0),
		handInst(5, isa.ClassReturn, 0, -1),
		handInst(6, isa.ClassCall, handPC(2), -1),
		handInst(7, isa.ClassReturn, 0, -1),
	)
}

// unmatchedReturnProgram returns with an empty call stack. The jump after
// the return is reached only if the walk wrongly falls through it.
func unmatchedReturnProgram(seed uint64, site Site) *Program {
	return handProgram("unmatched-return", seed, site,
		handInst(0, isa.ClassIntALU, 0, -1),
		handInst(1, isa.ClassStore, 0, -1),
		handInst(2, isa.ClassBranch, handPC(4), 0),
		handInst(3, isa.ClassIntALU, 0, -1),
		handInst(4, isa.ClassReturn, 0, -1),
		handInst(5, isa.ClassJump, handPC(2), -1),
	)
}

// escapingProgram's branch targets an address InstAt rejects.
func escapingProgram(seed uint64, site Site, target uint64) *Program {
	return handProgram("escaping", seed, site,
		handInst(0, isa.ClassIntALU, 0, -1),
		handInst(1, isa.ClassIntALU, 0, -1),
		handInst(2, isa.ClassBranch, target, 0),
		handInst(3, isa.ClassLoad, 0, -1),
		handInst(4, isa.ClassJump, handPC(0), -1),
	)
}

// fallOffProgram's last block has no control transfer, so the walk runs
// off the end of the image.
func fallOffProgram(seed uint64, site Site) *Program {
	return handProgram("fall-off", seed, site,
		handInst(0, isa.ClassIntALU, 0, -1),
		handInst(1, isa.ClassIntALU, 0, -1),
		handInst(2, isa.ClassBranch, handPC(0), 0),
		handInst(3, isa.ClassIntALU, 0, -1),
		handInst(4, isa.ClassLoad, 0, -1),
	)
}

// fuzzSite derives a branch site of any behaviour kind from x.
func fuzzSite(x uint64) Site {
	switch BehaviorKind(x % uint64(numBehaviorKinds)) {
	case BehaviorLoop:
		return Site{Kind: BehaviorLoop, TripCount: 1 + uint32(x>>8)%12}
	case BehaviorLocalPattern:
		n := 2 + uint32(x>>8)%7
		return Site{Kind: BehaviorLocalPattern, PatternLen: n, Pattern: x >> 16 & (1<<n - 1)}
	case BehaviorGlobalCorrelated:
		return Site{Kind: BehaviorGlobalCorrelated, HistMask: x>>8&0xff | 1, Invert: x>>16&1 == 1}
	case BehaviorRandom:
		return Site{Kind: BehaviorRandom, PTaken: 0.5}
	default:
		return Site{Kind: BehaviorBiased, PTaken: float64(x>>8%1000) / 1000, Noise: float64(x>>24%3) / 10}
	}
}

// escapeTargets are branch targets that leave the image of escapingProgram:
// past its end, below its base, and misaligned.
var escapeTargets = [...]uint64{handPC(100), DefaultBase - isa.InstBytes, handPC(2) + 2}

func TestSiteCountsHandBuilt(t *testing.T) {
	progs := []*Program{recursiveProgram(1, 1500), recursiveProgram(2, 40)}
	for x := uint64(0); x < uint64(numBehaviorKinds); x++ {
		site := fuzzSite(x*0x9e3779b97f4a7c15 + x)
		progs = append(progs, unmatchedReturnProgram(x, site), fallOffProgram(x, site))
		for _, target := range escapeTargets {
			progs = append(progs, escapingProgram(x, site, target))
		}
	}
	for _, p := range progs {
		checkSiteCountBudgets(t, p)
		for _, steps := range []int{2, 3, 5, 8, 13, 1000, 7919, 20000} {
			checkSiteCounts(t, p, steps)
		}
	}
	// The deep recursion really overflows the 1024-entry stack.
	w := NewWalker(progs[0])
	depth, maxDepth := 0, 0
	for i := 0; i < 20000; i++ {
		switch w.Step().SI.Class {
		case isa.ClassCall:
			depth++
			maxDepth = max(maxDepth, depth)
		case isa.ClassReturn:
			depth--
		}
	}
	if maxDepth <= 1024 {
		t.Errorf("recursive program reached depth %d, want > 1024", maxDepth)
	}
}

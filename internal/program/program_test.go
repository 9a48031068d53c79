package program

import (
	"testing"
	"testing/quick"

	"bpredpower/internal/isa"
)

func testSpec(seed uint64) Spec {
	return Spec{
		Name:         "test",
		Seed:         seed,
		NumBlocks:    400,
		NumFuncs:     8,
		MeanBlockLen: 8,
		CondFrac:     0.55,
		JumpFrac:     0.1,
		CallFrac:     0.08,
		LoadFrac:     0.25,
		StoreFrac:    0.1,
		FPFrac:       0.05,
		MultFrac:     0.03,
		DivFrac:      0.005,
		DepMean:      4,
		Behaviors: []BehaviorWeight{
			{Kind: BehaviorBiased, Weight: 0.4, PTaken: 0.95},
			{Kind: BehaviorLoop, Weight: 0.25, TripMean: 8},
			{Kind: BehaviorGlobalCorrelated, Weight: 0.15, HistSpan: 8},
			{Kind: BehaviorLocalPattern, Weight: 0.1, PatternMaxLen: 6},
			{Kind: BehaviorRandom, Weight: 0.1},
		},
		Regions: []MemRegion{
			{Size: 1 << 16, Stride: 8},
			{Size: 1 << 22, Stride: 64, RandomFrac: 0.3},
		},
	}
}

func TestGenerateValidates(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		p, err := Generate(testSpec(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(p.Sites) == 0 {
			t.Fatalf("seed %d: no branch sites", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(testSpec(3))
	b := MustGenerate(testSpec(3))
	if len(a.Code) != len(b.Code) {
		t.Fatalf("code lengths differ: %d vs %d", len(a.Code), len(b.Code))
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs: %v vs %v", i, a.Code[i], b.Code[i])
		}
	}
	if len(a.Sites) != len(b.Sites) {
		t.Fatalf("site counts differ")
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Spec{Name: "tiny", NumBlocks: 1}); err == nil {
		t.Error("NumBlocks=1 accepted")
	}
	sp := testSpec(1)
	sp.Regions = nil
	if _, err := Generate(sp); err == nil {
		t.Error("memory ops without regions accepted")
	}
}

func TestInstAt(t *testing.T) {
	p := MustGenerate(testSpec(1))
	if p.InstAt(p.Base-4) != nil {
		t.Error("InstAt below base returned instruction")
	}
	if p.InstAt(p.Base+1) != nil {
		t.Error("InstAt misaligned returned instruction")
	}
	if p.InstAt(p.Base+p.CodeBytes()) != nil {
		t.Error("InstAt past end returned instruction")
	}
	if si := p.InstAt(p.Base); si == nil || si.PC != p.Base {
		t.Error("InstAt(base) wrong")
	}
}

// TestWalkerRunsForever exercises the closed-CFG guarantee: a long walk
// never leaves the image and never needs a restart.
func TestWalkerRunsForever(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		p := MustGenerate(testSpec(seed))
		w := NewWalker(p)
		for i := 0; i < 500000; i++ {
			st := w.Step()
			if st.SI == nil {
				t.Fatalf("seed %d: nil instruction at step %d", seed, i)
			}
			if !p.Contains(st.NextPC) {
				t.Fatalf("seed %d: NextPC %#x escapes image", seed, st.NextPC)
			}
		}
		if w.Restarts() != 0 {
			t.Errorf("seed %d: walker needed %d restarts", seed, w.Restarts())
		}
		if w.Seq() != 500000 {
			t.Errorf("seed %d: Seq = %d", seed, w.Seq())
		}
	}
}

// TestWalkerDeterministic verifies two walkers over the same program produce
// the identical dynamic stream — the EIO-trace reproducibility property.
func TestWalkerDeterministic(t *testing.T) {
	p := MustGenerate(testSpec(7))
	a, b := NewWalker(p), NewWalker(p)
	for i := 0; i < 200000; i++ {
		sa, sb := a.Step(), b.Step()
		if sa.SI.PC != sb.SI.PC || sa.Taken != sb.Taken || sa.NextPC != sb.NextPC || sa.MemAddr != sb.MemAddr {
			t.Fatalf("walkers diverged at step %d: %+v vs %+v", i, sa, sb)
		}
	}
}

// TestWalkerControlSemantics checks taken control transfers actually land on
// their targets and returns match their calls.
func TestWalkerControlSemantics(t *testing.T) {
	p := MustGenerate(testSpec(2))
	w := NewWalker(p)
	var callStack []uint64
	for i := 0; i < 300000; i++ {
		st := w.Step()
		switch st.SI.Class {
		case isa.ClassJump:
			if st.NextPC != st.SI.Target {
				t.Fatalf("jump at %#x went to %#x, want %#x", st.SI.PC, st.NextPC, st.SI.Target)
			}
		case isa.ClassCall:
			if st.NextPC != st.SI.Target {
				t.Fatalf("call at %#x went to %#x", st.SI.PC, st.NextPC)
			}
			callStack = append(callStack, st.SI.NextPC())
		case isa.ClassReturn:
			if len(callStack) == 0 {
				t.Fatalf("return at %#x with empty shadow stack", st.SI.PC)
			}
			want := callStack[len(callStack)-1]
			callStack = callStack[:len(callStack)-1]
			if st.NextPC != want {
				t.Fatalf("return at %#x went to %#x, want %#x", st.SI.PC, st.NextPC, want)
			}
		case isa.ClassBranch:
			want := st.SI.NextPC()
			if st.Taken {
				want = st.SI.Target
			}
			if st.NextPC != want {
				t.Fatalf("branch at %#x: taken=%v nextPC=%#x", st.SI.PC, st.Taken, st.NextPC)
			}
		default:
			if st.NextPC != st.SI.NextPC() {
				t.Fatalf("sequential inst at %#x has NextPC %#x", st.SI.PC, st.NextPC)
			}
		}
	}
}

// TestBehaviorOutcomePure asserts Outcome is a pure function of its inputs.
func TestBehaviorOutcomePure(t *testing.T) {
	sites := []Site{
		{ID: 0, Kind: BehaviorBiased, PTaken: 0.8},
		{ID: 1, Kind: BehaviorLoop, TripCount: 5},
		{ID: 2, Kind: BehaviorLocalPattern, Pattern: 0b1011, PatternLen: 4},
		{ID: 3, Kind: BehaviorGlobalCorrelated, HistMask: 0b101},
		{ID: 4, Kind: BehaviorRandom},
	}
	f := func(occ, ghist uint64, idx uint8) bool {
		s := &sites[int(idx)%len(sites)]
		return s.Outcome(99, occ, ghist) == s.Outcome(99, occ, ghist)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoopBehaviorExact(t *testing.T) {
	s := Site{ID: 0, Kind: BehaviorLoop, TripCount: 3}
	want := []bool{true, true, true, false, true, true, true, false}
	for i, w := range want {
		if got := s.Outcome(1, uint64(i), 0); got != w {
			t.Errorf("occ %d: got %v, want %v", i, got, w)
		}
	}
}

func TestLocalPatternBehaviorExact(t *testing.T) {
	s := Site{ID: 0, Kind: BehaviorLocalPattern, Pattern: 0b0110, PatternLen: 4}
	want := []bool{false, true, true, false, false, true, true, false}
	for i, w := range want {
		if got := s.Outcome(1, uint64(i), 0); got != w {
			t.Errorf("occ %d: got %v, want %v", i, got, w)
		}
	}
}

func TestCorrelatedBehaviorTracksHistory(t *testing.T) {
	s := Site{ID: 0, Kind: BehaviorGlobalCorrelated, HistMask: 0b1}
	if s.Outcome(1, 0, 0b1) != true {
		t.Error("parity of 1 should be taken")
	}
	if s.Outcome(1, 0, 0b0) != false {
		t.Error("parity of 0 should be not-taken")
	}
	inv := Site{ID: 1, Kind: BehaviorGlobalCorrelated, HistMask: 0b1, Invert: true}
	if inv.Outcome(1, 0, 0b1) != false {
		t.Error("inverted parity of 1 should be not-taken")
	}
}

func TestBiasedBehaviorFrequency(t *testing.T) {
	s := Site{ID: 0, Kind: BehaviorBiased, PTaken: 0.9}
	taken := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if s.Outcome(5, uint64(i), 0) {
			taken++
		}
	}
	freq := float64(taken) / n
	if freq < 0.88 || freq > 0.92 {
		t.Errorf("biased(0.9) frequency = %.4f", freq)
	}
}

func TestNoiseFlipsOutcomes(t *testing.T) {
	clean := Site{ID: 0, Kind: BehaviorLoop, TripCount: 4}
	noisy := Site{ID: 0, Kind: BehaviorLoop, TripCount: 4, Noise: 0.2}
	flips := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if clean.Outcome(9, uint64(i), 0) != noisy.Outcome(9, uint64(i), 0) {
			flips++
		}
	}
	freq := float64(flips) / n
	if freq < 0.17 || freq > 0.23 {
		t.Errorf("noise 0.2 flipped %.4f of outcomes", freq)
	}
}

// TestDynamicBranchFrequency sanity-checks that the dynamic conditional
// branch frequency lands near the structural expectation (one conditional
// per mean block length / condFrac), which calibrates Table 2.
func TestDynamicBranchFrequency(t *testing.T) {
	p := MustGenerate(testSpec(4))
	w := NewWalker(p)
	cond, total := 0, 400000
	for i := 0; i < total; i++ {
		if w.Step().SI.Class == isa.ClassBranch {
			cond++
		}
	}
	freq := float64(cond) / float64(total)
	if freq < 0.02 || freq > 0.25 {
		t.Errorf("dynamic conditional frequency %.4f outside sane band", freq)
	}
}

func TestMemAddrWithinRegion(t *testing.T) {
	p := MustGenerate(testSpec(6))
	w := NewWalker(p)
	for i := 0; i < 200000; i++ {
		st := w.Step()
		if !st.SI.Class.IsMem() {
			continue
		}
		r := p.Regions[st.SI.MemBase]
		base := regionBase(st.SI.MemBase)
		if st.MemAddr < base || st.MemAddr >= base+r.Size {
			t.Fatalf("mem addr %#x outside region %d [%#x,%#x)", st.MemAddr, st.SI.MemBase, base, base+r.Size)
		}
	}
}

func TestWrongPathHelpersDeterministic(t *testing.T) {
	if WrongPathOutcome(1, 2, 3) != WrongPathOutcome(1, 2, 3) {
		t.Error("WrongPathOutcome not deterministic")
	}
	p := MustGenerate(testSpec(8))
	si := &isa.StaticInst{PC: 0x5000, Class: isa.ClassLoad, MemBase: 0}
	if WrongPathMemAddr(p, si, 9) != WrongPathMemAddr(p, si, 9) {
		t.Error("WrongPathMemAddr not deterministic")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := MustGenerate(testSpec(1))
	// Break a branch target.
	for i := range p.Code {
		if p.Code[i].Class == isa.ClassBranch {
			saved := p.Code[i].Target
			p.Code[i].Target = p.Base + p.CodeBytes() + 64
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted out-of-image branch target")
			}
			p.Code[i].Target = saved
			break
		}
	}
	// Break a site ID.
	if len(p.Sites) > 0 {
		p.Sites[0].ID = 99
		if err := p.Validate(); err == nil {
			t.Error("Validate accepted corrupted site ID")
		}
		p.Sites[0].ID = 0
	}
}

// TestGenerateCrowdedFunctions asks for more functions than the blocks can
// hold: the generator must shrink the function count, not leave a function
// without blocks.
func TestGenerateCrowdedFunctions(t *testing.T) {
	for nb := 2; nb <= 40; nb++ {
		sp := testSpec(uint64(nb))
		sp.NumBlocks, sp.NumFuncs = nb, nb
		if _, err := Generate(sp); err != nil {
			t.Errorf("%d blocks: %v", nb, err)
		}
	}
}

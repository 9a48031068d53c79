package workload

import (
	"testing"

	"bpredpower/internal/isa"
	"bpredpower/internal/program"
)

func TestSuiteSizesMatchTable2(t *testing.T) {
	if n := len(SPECint2000()); n != 10 {
		t.Errorf("SPECint2000 has %d benchmarks, want 10", n)
	}
	if n := len(SPECfp2000()); n != 12 {
		t.Errorf("SPECfp2000 has %d benchmarks, want 12", n)
	}
	if n := len(All()); n != 22 {
		t.Errorf("All has %d benchmarks, want 22", n)
	}
}

func TestExcludedBenchmarksAbsent(t *testing.T) {
	// The paper excluded these for EIO trace problems.
	for _, name := range []string{"252.eon", "181.mcf", "178.galgel", "200.sixtrack"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("%s should be excluded", name)
		}
	}
}

func TestSubset7Composition(t *testing.T) {
	s := Subset7()
	if len(s) != 7 {
		t.Fatalf("Subset7 has %d benchmarks", len(s))
	}
	want := map[string]bool{
		"164.gzip": true, "175.vpr": true, "176.gcc": true, "186.crafty": true,
		"197.parser": true, "254.gap": true, "255.vortex": true,
	}
	for _, b := range s {
		if !want[b.Name] {
			t.Errorf("unexpected subset member %s", b.Name)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("176.gcc")
	if err != nil || b.Name != "176.gcc" || b.Suite != SPECint {
		t.Errorf("ByName(176.gcc) = %+v, %v", b, err)
	}
	if _, err := ByName("999.nope"); err == nil {
		t.Error("unknown benchmark found")
	}
}

func TestNames(t *testing.T) {
	ns := Names(Subset7())
	if len(ns) != 7 || ns[0] != "164.gzip" {
		t.Errorf("Names = %v", ns)
	}
}

func TestSuiteString(t *testing.T) {
	if SPECint.String() != "SPECint2000" || SPECfp.String() != "SPECfp2000" {
		t.Error("suite names wrong")
	}
}

func TestAllProgramsGenerate(t *testing.T) {
	for _, b := range All() {
		p := b.Program()
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if p.Name != b.Name {
			t.Errorf("%s: program named %q", b.Name, p.Name)
		}
	}
}

func TestProgramsDeterministic(t *testing.T) {
	b, _ := ByName("164.gzip")
	p1 := b.Program()
	p2 := b.Program()
	if len(p1.Code) != len(p2.Code) {
		t.Fatal("program sizes differ across generations")
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	for i := range p1.Sites {
		if p1.Sites[i] != p2.Sites[i] {
			t.Fatalf("site %d differs", i)
		}
	}
}

// TestDynamicMixNearTargets checks the closed-loop calibration delivers the
// solver's dynamic behaviour mixture within coarse tolerances on every
// benchmark. A few benchmarks miss a share (EXPERIMENTS.md, "Known
// deviations"); for those the test asserts the miss is still there, so a
// calibration change that mends or moves it has to update this table.
func TestDynamicMixNearTargets(t *testing.T) {
	// knownMisses lists the shares each benchmark is known to miss.
	knownMisses := map[string]struct{ loop, biased bool }{
		"171.swim":    {loop: true, biased: true},
		"173.applu":   {loop: true},
		"187.facerec": {loop: true, biased: true},
		"189.lucas":   {loop: true},
	}
	for _, b := range All() {
		p := b.Program()
		w := program.NewWalker(p)
		var conds uint64
		mass := map[program.BehaviorKind]float64{}
		for i := 0; i < 300000; i++ {
			st := w.Step()
			if st.SI.Class == isa.ClassBranch {
				conds++
				mass[p.Sites[st.SI.Site].Kind]++
			}
		}
		m := b.Spec.Mix
		miss := knownMisses[b.Name]
		loop := mass[program.BehaviorLoop] / float64(conds)
		loopMissed := loop < m.Loop-0.12 || loop > m.Loop+0.15
		if loopMissed != miss.loop {
			t.Errorf("%s: loop share %.3f, target %.3f, known miss %v", b.Name, loop, m.Loop, miss.loop)
		}
		biased := mass[program.BehaviorBiased] / float64(conds)
		biasedMissed := biased < m.Biased-0.20 || biased > m.Biased+0.25
		if biasedMissed != miss.biased {
			t.Errorf("%s: biased share %.3f, target %.3f, known miss %v", b.Name, biased, m.Biased, miss.biased)
		}
	}
}

// TestSolveMixAccounting checks the solver's weights are non-negative and
// the mixture targets are internally consistent.
func TestSolveMixAccounting(t *testing.T) {
	for _, b := range All() {
		m := b.Spec.Mix
		if m == nil {
			t.Fatalf("%s: no mix targets", b.Name)
		}
		for _, v := range []float64{m.Biased, m.Loop, m.Correlated, m.Pattern, m.Random} {
			if v < 0 || v > 1 {
				t.Errorf("%s: mix share %v out of range", b.Name, v)
			}
		}
		sum := m.Biased + m.Loop + 2*m.Correlated + m.Pattern + (m.Random - m.Correlated)
		if sum < 0.9 || sum > 1.1 {
			t.Errorf("%s: mix shares sum to %.3f", b.Name, sum)
		}
		for _, bw := range b.Spec.Behaviors {
			if bw.Weight < 0 {
				t.Errorf("%s: negative static weight %v for %v", b.Name, bw.Weight, bw.Kind)
			}
		}
	}
}

// TestPaperTargetsPlumbed checks Table 2 values are attached.
func TestPaperTargetsPlumbed(t *testing.T) {
	b, _ := ByName("164.gzip")
	if b.PaperBimod16K != 0.8587 || b.PaperGshare16K != 0.9106 {
		t.Errorf("gzip paper accuracies wrong: %v %v", b.PaperBimod16K, b.PaperGshare16K)
	}
	if b.PaperCondFreq != 0.0673 || b.PaperUncondFreq != 0.0305 {
		t.Errorf("gzip paper frequencies wrong")
	}
	for _, bm := range All() {
		if bm.PaperBimod16K <= 0.5 || bm.PaperGshare16K < bm.PaperBimod16K-0.001 {
			t.Errorf("%s: implausible paper targets %v %v", bm.Name, bm.PaperBimod16K, bm.PaperGshare16K)
		}
	}
}

package experiments

import (
	"context"
	"strings"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/config"
	"bpredpower/internal/cpu"
	"bpredpower/internal/power"
	"bpredpower/internal/workload"
)

// The deferred accounting kernel must reproduce the eager per-cycle
// reference bit-for-bit at the figure level, for all four gating styles:
// every float in the Run rows — energies, powers, EDP — must be identical,
// and the cross-check mode (which asserts agreement internally every read)
// must complete without panicking. The eager modes are simulator-level
// references, so each mode is simulated directly rather than through a
// harness (which serves deferred accounting only).
func TestAccountingEquivalenceAcrossGatingStyles(t *testing.T) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Program()
	rc := RunConfig{WarmupInsts: 4000, MeasureInsts: 8000}
	for _, style := range []power.GatingStyle{power.CC0, power.CC1, power.CC2, power.CC3} {
		t.Run(style.String(), func(t *testing.T) {
			runWith := func(mode power.AccountingMode) Run {
				r, _, err := simulateCtx(context.Background(), prog, bench, cpu.Options{
					Predictor:   bpred.Hybrid1,
					ClockGating: style,
					Accounting:  mode,
				}, rc)
				if err != nil {
					t.Fatalf("mode %s: %v", mode, err)
				}
				// Machine labels differ by the accounting suffix (display
				// only); blank it so the struct comparison sees physics only.
				r.Machine = ""
				return r
			}
			deferred := runWith(power.AccountDeferred)
			eager := runWith(power.AccountPerCycle)
			cross := runWith(power.AccountCrossCheck)
			if deferred != eager {
				t.Errorf("deferred and per-cycle accounting diverged:\n deferred: %+v\n percycle: %+v", deferred, eager)
			}
			if deferred != cross {
				t.Errorf("deferred and cross-check accounting diverged:\n deferred: %+v\n crosscheck: %+v", deferred, cross)
			}
		})
	}
}

// The harness folds every non-base pricing key from a deferred activity
// record, which an eager meter cannot load: such a request must fail
// through Err with a zero Run, never return a mispriced one. Under the base
// pricing key an eager run is simulated as asked.
func TestSimulateEagerNonBasePricingFails(t *testing.T) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{WarmupInsts: 2000, MeasureInsts: 4000}
	for _, mode := range []power.AccountingMode{power.AccountPerCycle, power.AccountCrossCheck} {
		h := NewHarness(rc)
		h.Parallel = 1
		base := cpu.Options{Predictor: bpred.Hybrid1, Accounting: mode}
		if r := h.Simulate(bench, base); r == (Run{}) || h.Err() != nil {
			t.Fatalf("%s base pricing: run %+v, err %v", mode, r, h.Err())
		}
		opt := base
		opt.ClockGating = power.CC1
		if r := h.Simulate(bench, opt); r != (Run{}) {
			t.Errorf("%s with cc1: got a run %+v, want a zero Run", mode, r)
		}
		if err := h.Err(); err == nil || !strings.Contains(err.Error(), "deferred accounting") {
			t.Errorf("%s with cc1: Err() = %v, want the SetActivity error", mode, err)
		}
	}
}

// A run that hits the cycle safety limit must surface as a harness error,
// not as a silently short Run.
func TestSimulateSurfacesCycleLimit(t *testing.T) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.MemLatency = 1_000_000
	h := NewHarness(RunConfig{WarmupInsts: 10, MeasureInsts: 10})
	h.Parallel = 1
	r := h.Simulate(bench, cpu.Options{Config: cfg})
	if err := h.Err(); err == nil {
		t.Fatalf("expected a cycle-limit error, got none (run: %+v)", r)
	} else if want := "cycle safety limit"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
	if r != (Run{}) {
		t.Errorf("limit-hit Simulate returned a non-zero Run: %+v", r)
	}
}

package power

import (
	"fmt"
	"reflect"
	"testing"
)

// driveMeter builds a meter with a small unit mix under the given style and
// accounting mode and replays a fixed activity schedule.
func driveMeter(style GatingStyle, mode AccountingMode) *Meter {
	m := NewMeter(1.25e-9)
	m.Style = style
	m.Accounting = mode
	units := make([]*Unit, 8)
	for i := range units {
		units[i] = m.Add(NewFixedUnit(fmt.Sprintf("u%d", i), GroupALU, float64(i+1)*1e-11, 2))
	}
	// Mixed schedule: bursts, idle stretches, partial accesses, multi-port.
	for c := 0; c < 2000; c++ {
		for i, u := range units {
			switch {
			case c%(i+2) == 0:
				u.Read(1)
			case c%(i+5) == 1:
				u.Write(2)
			case c%(i+7) == 2:
				u.Partial(1)
			}
		}
		m.EndCycle()
	}
	return m
}

// The accounting modes are the same closed form evaluated at different
// times, so every reported energy must agree bit-for-bit across modes, for
// every gating style.
func TestAccountingModesBitIdentical(t *testing.T) {
	for _, style := range []GatingStyle{CC0, CC1, CC2, CC3} {
		t.Run(style.String(), func(t *testing.T) {
			deferred := driveMeter(style, AccountDeferred)
			eager := driveMeter(style, AccountPerCycle)
			cross := driveMeter(style, AccountCrossCheck)

			if a, b := deferred.TotalEnergy(), eager.TotalEnergy(); a != b {
				t.Errorf("TotalEnergy: deferred %v != percycle %v", a, b)
			}
			if a, b := deferred.TotalEnergy(), cross.TotalEnergy(); a != b {
				t.Errorf("TotalEnergy: deferred %v != crosscheck %v", a, b)
			}
			for g := Group(0); g < numGroups; g++ {
				if a, b := deferred.GroupEnergy(g), eager.GroupEnergy(g); a != b {
					t.Errorf("GroupEnergy(%s): deferred %v != percycle %v", g, a, b)
				}
			}
			for _, u := range deferred.Units() {
				if a, b := u.Energy(), eager.Unit(u.Name).Energy(); a != b {
					t.Errorf("unit %s: deferred %v != percycle %v", u.Name, a, b)
				}
			}
			if a, b := deferred.EnergyDelay(), eager.EnergyDelay(); a != b {
				t.Errorf("EnergyDelay: deferred %v != percycle %v", a, b)
			}
		})
	}
}

// Mid-run reads must not disturb the accounting: reading every metric each
// cycle is a pure observation under all modes.
func TestAccountingReadsArePure(t *testing.T) {
	for _, mode := range []AccountingMode{AccountDeferred, AccountPerCycle, AccountCrossCheck} {
		m := NewMeter(1.25e-9)
		m.Accounting = mode
		u := m.Add(NewFixedUnit("u", GroupALU, 1e-10, 2))
		var observed float64
		for c := 0; c < 100; c++ {
			if c%3 == 0 {
				u.Read(1)
			}
			m.EndCycle()
			observed = m.TotalEnergy() // interleaved reads
			_ = m.Breakdown()
		}
		ref := driveRef(3, 100)
		if observed != ref {
			t.Errorf("mode %s: interleaved reads changed the result: %v != %v", mode, observed, ref)
		}
	}
}

// driveRef computes the same schedule with no interleaved reads under the
// default mode.
func driveRef(every, cycles int) float64 {
	m := NewMeter(1.25e-9)
	u := m.Add(NewFixedUnit("u", GroupALU, 1e-10, 2))
	for c := 0; c < cycles; c++ {
		if c%every == 0 {
			u.Read(1)
		}
		m.EndCycle()
	}
	return m.TotalEnergy()
}

// Reset must clear the deferred counters exactly like the eager fields, so a
// warm-up discard behaves identically under every mode.
func TestAccountingReset(t *testing.T) {
	for _, mode := range []AccountingMode{AccountDeferred, AccountPerCycle, AccountCrossCheck} {
		m := driveMeter(CC3, mode)
		m.Reset()
		if e := m.TotalEnergy(); e != 0 {
			t.Errorf("mode %s: TotalEnergy %v after Reset, want 0", mode, e)
		}
		if c := m.Cycles(); c != 0 {
			t.Errorf("mode %s: Cycles %d after Reset, want 0", mode, c)
		}
	}
}

// EndIdleCycles(k) must leave the meter exactly as k EndCycle calls with no
// accesses would — state, activity and every energy reading — in every
// accounting mode and gating style, including a unit touched in the cycle
// just before the stretch and again right after it.
func TestEndIdleCyclesMatchesEndCycle(t *testing.T) {
	for _, style := range []GatingStyle{CC0, CC1, CC2, CC3} {
		for _, mode := range []AccountingMode{AccountDeferred, AccountPerCycle, AccountCrossCheck} {
			stepped := driveMeter(style, mode)
			jumped := driveMeter(style, mode)
			for _, k := range []uint64{0, 1, 2, 97} {
				stepped.Units()[0].Read(1)
				jumped.Units()[0].Read(1)
				stepped.EndCycle()
				jumped.EndCycle()
				for i := uint64(0); i < k; i++ {
					stepped.EndCycle()
				}
				jumped.EndIdleCycles(k)
				stepped.Units()[1].Write(1)
				jumped.Units()[1].Write(1)
				stepped.EndCycle()
				jumped.EndCycle()

				label := fmt.Sprintf("%s/%s/k=%d", style, mode, k)
				if !reflect.DeepEqual(stepped.State(), jumped.State()) {
					t.Fatalf("%s: meter state diverged", label)
				}
				if a, b := stepped.TotalEnergy(), jumped.TotalEnergy(); a != b {
					t.Fatalf("%s: TotalEnergy %v != %v", label, a, b)
				}
				if a, b := stepped.ClockEnergy(), jumped.ClockEnergy(); a != b {
					t.Fatalf("%s: ClockEnergy %v != %v", label, a, b)
				}
			}
		}
	}
}

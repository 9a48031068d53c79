package program

import (
	"fmt"
	"sort"

	"bpredpower/internal/isa"
)

// MixTargets requests closed-loop calibration of the *dynamic* behaviour
// mixture: after generating the static image, the generator walks it,
// measures how much of the executed branch stream each behaviour kind
// actually receives (hot sites dominate), and reassigns site behaviours —
// hottest sites first — until the executed mixture matches the targets.
//
// Without this, two structurally identical programs can realize wildly
// different mixtures because a benchmark's few hottest branches are an
// arbitrary sample of the static assignment.
type MixTargets struct {
	// Biased, Loop, Correlated, Pattern, Random are the desired shares of
	// executed conditional branches per kind. Correlated counts only the
	// repeater half of each correlated pair; the pair's random source is
	// accounted under Random. Shares should sum to ~1.
	Biased, Loop, Correlated, Pattern, Random float64
	// PTaken is the taken probability of biased sites.
	PTaken float64
	// Trip is the loop trip count installed on loop sites.
	Trip int
	// PatternMaxLen bounds local patterns.
	PatternMaxLen int
	// Steps is the calibration walk length (default 200000).
	Steps int
	// Rounds is the number of measure/reassign rounds (default 3).
	Rounds int
}

func (t *MixTargets) steps() int {
	if t.Steps <= 0 {
		return 200000
	}
	return t.Steps
}

func (t *MixTargets) rounds() int {
	if t.Rounds <= 0 {
		return 6
	}
	return t.Rounds
}

// calibrate runs the measure/reassign loop. Pair members (correlated
// repeaters and their random sources) keep their kinds — their share is
// measured and the remaining targets are renormalized around it — and
// function-entry sites never become loops.
func (g *generator) calibrate(t *MixTargets) {
	// reassign rewrites only Sites, so the block structure holds for every
	// round.
	nextCtl := controlIndex(g.prog.Code)
	counts := make([]uint64, len(g.prog.Sites))
	occ := make([]uint64, len(g.prog.Sites))
	for round := 0; round < t.rounds(); round++ {
		siteCounts(g.prog, nextCtl, t.steps(), counts, occ)
		if !g.reassign(counts, t) {
			break
		}
	}
}

// controlIndex returns, for each code index i, the index of the first
// control instruction at or after i, or len(code) when none follows.
func controlIndex(code []isa.StaticInst) []int32 {
	next := make([]int32, len(code))
	c := int32(len(code))
	for i := len(code) - 1; i >= 0; i-- {
		if code[i].Class.IsControl() {
			c = int32(i)
		}
		next[i] = c
	}
	return next
}

// siteCounts walks p architecturally for steps instructions from its entry
// and stores per-site conditional-branch execution counts in counts; occ is
// scratch. Both must have len(p.Sites) entries, and nextCtl must be
// controlIndex(p.Code). The counts equal those of steps Walker.Step calls on
// a fresh Walker, but the walk moves one basic block at a time: a branch
// outcome is a pure function of (seed, site, occurrence, global history),
// so the instructions between control transfers cannot change any count and
// are charged against the budget without being visited. A block whose
// control instruction lies past the budget is not entered, since the steps
// left would execute no branch.
func siteCounts(p *Program, nextCtl []int32, steps int, counts, occ []uint64) {
	clear(counts)
	clear(occ)
	n := uint64(len(p.Code))
	entry := (p.Entry - p.Base) / isa.InstBytes
	entryOK := p.Contains(p.Entry)
	var ghist uint64
	var stack []uint64
	pc := p.Entry
	left := uint64(steps)
	for left > 0 {
		i := (pc - p.Base) / isa.InstBytes
		if !p.Contains(pc) {
			// Walker.Step restarts at the entry within the same step.
			if !entryOK {
				panic(fmt.Sprintf("program %s: entry %#x not in image", p.Name, p.Entry))
			}
			i = entry
		}
		c := uint64(nextCtl[i])
		if c == n {
			// No control transfer before the end of the image: the walk
			// runs off it and restarts.
			if n-i >= left {
				return
			}
			left -= n - i
			pc = p.Entry
			continue
		}
		if c-i+1 > left {
			return
		}
		left -= c - i + 1
		si := &p.Code[c]
		switch si.Class {
		case isa.ClassBranch:
			o := occ[si.Site]
			taken := p.Sites[si.Site].Outcome(p.Seed, o, ghist)
			occ[si.Site] = o + 1
			counts[si.Site]++
			ghist = ghist<<1 | b2u(taken)
			pc = si.NextPC()
			if taken {
				pc = si.Target
			}
		case isa.ClassJump:
			pc = si.Target
		case isa.ClassCall:
			pc = si.Target
			stack = append(stack, si.NextPC())
			// The same bound as Walker.Step's architectural stack.
			if len(stack) > 1024 {
				stack = stack[len(stack)-1024:]
			}
		case isa.ClassReturn:
			if k := len(stack); k > 0 {
				pc = stack[k-1]
				stack = stack[:k-1]
			} else {
				pc = p.Entry
			}
		}
	}
}

// reassign redistributes site behaviours to match the targets, returning
// whether anything changed. It works in three stages against the measured
// dynamic mass M: (1) trim surplus correlated pairs (hottest first) by
// converting both members to assignable sites; (2) select a loop set whose
// amplified mass hits the loop target (loops multiply a site's visit rate
// by trip+1, so they are chosen knapsack-style, not by share deficit);
// (3) distribute the remaining sites over biased/pattern/random by
// largest-remainder on their linear visit masses.
func (g *generator) reassign(counts []uint64, t *MixTargets) bool {
	trip := float64(t.Trip)
	if trip < 2 {
		trip = 8
	}
	var mTotal float64
	for _, c := range counts {
		mTotal += float64(c)
	}
	if mTotal == 0 {
		return false
	}
	changed := false

	// Stage 1: trim correlated pairs down to ~2*Correlated of the stream
	// (repeater + its random source). Unpaired members become assignable.
	var pairMass, fillerMass, srcMass float64
	type pair struct {
		a, b int32
		mass float64
	}
	var pairs []pair
	for i := range g.prog.Sites {
		if g.siteFiller[i] {
			fillerMass += float64(counts[i])
			continue
		}
		p := g.sitePartner[i]
		if p >= 0 && int32(i) < p {
			m := float64(counts[i] + counts[p])
			pairMass += m
			pairs = append(pairs, pair{a: int32(i), b: p, mass: m})
			if g.prog.Sites[i].Kind == BehaviorRandom {
				srcMass += float64(counts[i])
			} else {
				srcMass += float64(counts[p])
			}
		} else if g.sitePaired[i] && p < 0 {
			// Standalone fixed correlated site (fallback placement).
			pairMass += float64(counts[i])
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].mass > pairs[j].mass })
	targetPair := 2 * t.Correlated * mTotal
	for _, pr := range pairs {
		if pairMass <= targetPair*1.25 {
			break
		}
		// Unpair: both members become plain assignable sites.
		g.sitePaired[pr.a], g.sitePaired[pr.b] = false, false
		g.sitePartner[pr.a], g.sitePartner[pr.b] = -1, -1
		pairMass -= pr.mass
		changed = true
	}

	// Collect assignable sites with their structural visit rates. Loop
	// modules (self-targeting, flow-invariant toggles) are the only sites
	// eligible for loops; plain hammock sites take biased/pattern/random.
	type cand struct {
		id     int32
		visits float64
	}
	var modCands, plainCands []cand
	var vTotal float64
	for i := range g.prog.Sites {
		if g.sitePaired[i] || g.siteFiller[i] {
			continue
		}
		s := &g.prog.Sites[i]
		v := float64(counts[i])
		if s.Kind == BehaviorLoop {
			v /= float64(s.TripCount) + 1
		}
		if v <= 0 {
			continue
		}
		vTotal += v
		if g.siteModule[i] {
			modCands = append(modCands, cand{id: int32(i), visits: v})
		} else {
			plainCands = append(plainCands, cand{id: int32(i), visits: v})
		}
	}
	if vTotal == 0 {
		return changed
	}
	sort.Slice(modCands, func(i, j int) bool { return modCands[i].visits > modCands[j].visits })
	sort.Slice(plainCands, func(i, j int) bool { return plainCands[i].visits > plainCands[j].visits })

	// Stage 2: activate loop modules whose amplified visit mass hits the
	// loop share of the resulting stream:
	//   lam = vL*(k+1) / (fixed + (vTotal - vL) + vL*(k+1))
	lam := t.Loop
	denom := (trip + 1) - lam*trip
	vL := lam * (pairMass + fillerMass + vTotal) / denom
	active := make(map[int32]bool)
	var got float64
	take := func(c cand) {
		if got >= vL || active[c.id] {
			return
		}
		if got+c.visits > vL*1.25 {
			return // would overshoot; a cooler module may still fit
		}
		active[c.id] = true
		got += c.visits
	}
	// Stickiness: keep currently active loops that fit, damping oscillation.
	for _, c := range modCands {
		if g.prog.Sites[c.id].Kind == BehaviorLoop {
			take(c)
		}
	}
	for _, c := range modCands {
		take(c)
	}
	for _, c := range modCands {
		k := kindAssignBiased // dormant
		if active[c.id] {
			k = kindAssignLoop
		}
		if g.applyKind(c.id, k, t) {
			changed = true
		}
	}

	// Stage 3: largest-remainder over the plain sites' linear visit mass.
	// Fixed structures already supply part of some kinds' mass: pair
	// fillers are biased sites and pair sources are random sites, so the
	// assignable targets are the residuals.
	wantB := t.Biased*mTotal - fillerMass
	if wantB < 0 {
		wantB = 0
	}
	wantR := t.Random*mTotal - srcMass
	if wantR < 0 {
		wantR = 0
	}
	wantP := t.Pattern * mTotal
	sum := wantB + wantP + wantR
	if sum <= 0 {
		sum = 1
	}
	want := [3]float64{wantB / sum, wantP / sum, wantR / sum}
	var assigned [3]float64
	var linTotal float64
	for _, c := range plainCands {
		best, bestScore := 0, -1e18
		for k := 0; k < 3; k++ {
			score := want[k] - (assigned[k]+c.visits)/(linTotal+c.visits+1e-9)
			if score > bestScore {
				bestScore = score
				best = k
			}
		}
		assigned[best] += c.visits
		linTotal += c.visits
		kindSel := [3]int{kindAssignBiased, kindAssignPattern, kindAssignRandom}[best]
		if g.applyKind(c.id, kindSel, t) {
			changed = true
		}
	}
	return changed
}

// Assignable kind selectors for applyKind.
const (
	kindAssignBiased = iota
	kindAssignLoop
	kindAssignPattern
	kindAssignRandom
)

// applyKind rewrites site id to the assignable kind k. Loop modules toggle
// between active loop and dormant (almost-never-taken biased); their
// self-target never changes, so flow topology is invariant. Plain hammock
// sites switch among biased/pattern/random. It reports whether the site
// changed.
func (g *generator) applyKind(id int32, k int, t *MixTargets) bool {
	s := &g.prog.Sites[id]
	if g.siteModule[id] {
		switch k {
		case kindAssignLoop:
			trip := t.Trip
			if trip < 2 {
				trip = 8
			}
			if s.Kind == BehaviorLoop && int(s.TripCount) == trip {
				return false
			}
			*s = Site{ID: s.ID, Kind: BehaviorLoop, TripCount: uint32(trip)}
		default:
			if s.Kind == BehaviorBiased && s.PTaken == ModuleDormantPTaken {
				return false
			}
			*s = Site{ID: s.ID, Kind: BehaviorBiased, PTaken: ModuleDormantPTaken}
		}
		return true
	}
	si := &g.prog.Code[g.siteInst[id]]
	switch k {
	case kindAssignBiased:
		p := biasedPTaken(s.ID, t.PTaken)
		if si.Target <= si.PC && p > 0.5 {
			// Backward-edge site (function-tail fallback): a taken-biased
			// assignment would spin; keep it exit-biased.
			p = 1 - p
		}
		if s.Kind == BehaviorBiased && s.PTaken == p {
			return false
		}
		*s = Site{ID: s.ID, Kind: BehaviorBiased, PTaken: p}
	case kindAssignPattern:
		if s.Kind == BehaviorLocalPattern {
			return false
		}
		maxLen := t.PatternMaxLen
		if maxLen < 2 {
			maxLen = 6
		}
		n := 2 + g.rng.Intn(maxLen-1)
		*s = Site{ID: s.ID, Kind: BehaviorLocalPattern, PatternLen: uint32(n), Pattern: g.rng.Next() & (1<<uint(n) - 1)}
	case kindAssignRandom:
		if s.Kind == BehaviorRandom {
			return false
		}
		*s = Site{ID: s.ID, Kind: BehaviorRandom, PTaken: 0.5}
	}
	return true
}

package program

import (
	"fmt"

	"bpredpower/internal/isa"
	"bpredpower/internal/xrand"
)

// BehaviorWeight is one component of a branch-behaviour mixture.
type BehaviorWeight struct {
	// Kind is the outcome process.
	Kind BehaviorKind
	// Weight is the mixture weight (weights are normalized by the generator).
	Weight float64
	// PTaken applies to BehaviorBiased components.
	PTaken float64
	// TripMean is the mean loop trip count for BehaviorLoop components;
	// per-site trips are drawn geometrically around it.
	TripMean float64
	// PatternMaxLen bounds per-site pattern lengths for BehaviorLocalPattern.
	PatternMaxLen int
	// HistSpan bounds how far back in global history a
	// BehaviorGlobalCorrelated site correlates (the mask fits in that many
	// recent outcomes). Predictors need at least this much history to learn
	// the site.
	HistSpan int
	// Noise is the per-site outcome flip probability.
	Noise float64
}

// Spec describes a synthetic program to generate. All distributions are
// sampled with the deterministic Seed, so equal specs generate equal
// programs.
type Spec struct {
	// Name labels the program (the benchmark name).
	Name string
	// Seed drives all random structure and dynamic outcomes.
	Seed uint64
	// Base is the code base address; zero selects a default text base.
	Base uint64
	// NumBlocks is the number of basic blocks to generate.
	NumBlocks int
	// NumFuncs is the number of functions the blocks are partitioned into.
	// Calls form a DAG (functions call only later functions), so execution
	// cannot recurse unboundedly.
	NumFuncs int
	// MeanBlockLen is the mean basic-block length in instructions, including
	// the terminator. It controls the inter-branch distances of Figure 14.
	MeanBlockLen float64
	// CondFrac, JumpFrac, CallFrac are the fractions of blocks terminated by
	// a conditional branch, unconditional jump, and call respectively; the
	// remainder fall through to the next block. Function-final blocks are
	// forced to return (or, for the first function, loop back to the entry).
	CondFrac, JumpFrac, CallFrac float64
	// LoadFrac, StoreFrac are the fractions of block-body instructions that
	// are loads and stores.
	LoadFrac, StoreFrac float64
	// FPFrac is the fraction of remaining body instructions on the FP
	// cluster; MultFrac/DivFrac carve multiplies/divides out of each side.
	FPFrac, MultFrac, DivFrac float64
	// DepMean is the mean distance (in dynamic instructions) between an
	// instruction and the producer of its source operands; smaller means
	// longer dependence chains and lower ILP.
	DepMean float64
	// Behaviors is the conditional-branch behaviour mixture.
	Behaviors []BehaviorWeight
	// Regions are the synthetic data regions memory instructions reference.
	// At least one region is required when LoadFrac+StoreFrac > 0.
	Regions []MemRegion
	// Mix, when non-nil, enables closed-loop calibration of the dynamic
	// behaviour mixture after generation (see MixTargets).
	Mix *MixTargets
}

// ModuleDormantPTaken is the taken probability of a dormant loop module: a
// self-targeting branch that almost always exits immediately, behaving like
// an easily predicted biased branch while keeping the loop's flow topology.
const ModuleDormantPTaken = 0.01

// DefaultBase is the text base used when Spec.Base is zero.
const DefaultBase = 0x0001_2000_0000

// Generate builds the static program image described by sp.
func Generate(sp Spec) (*Program, error) {
	g, err := newGenerator(sp)
	if err != nil {
		return nil, err
	}
	if g.sp.Mix != nil {
		g.calibrate(g.sp.Mix)
	}
	if err := g.prog.Validate(); err != nil {
		return nil, fmt.Errorf("program: generated image invalid: %w", err)
	}
	return g.prog, nil
}

// newGenerator builds the uncalibrated image described by sp.
func newGenerator(sp Spec) (*generator, error) {
	if sp.NumBlocks < 2 {
		return nil, fmt.Errorf("program: spec %q needs at least 2 blocks", sp.Name)
	}
	if sp.NumFuncs < 1 {
		sp.NumFuncs = 1
	}
	if sp.NumFuncs > sp.NumBlocks/2 {
		sp.NumFuncs = sp.NumBlocks / 2
	}
	// Past main's share, every function but the last takes at least two
	// blocks; more functions than fit would leave the last one empty.
	if fit := 2 + (sp.NumBlocks-1-mainBlocks(sp.NumBlocks))/2; sp.NumFuncs > fit {
		sp.NumFuncs = fit
	}
	if sp.MeanBlockLen < 2 {
		sp.MeanBlockLen = 2
	}
	if len(sp.Behaviors) == 0 {
		sp.Behaviors = []BehaviorWeight{{Kind: BehaviorBiased, Weight: 1, PTaken: 0.9}}
	}
	if (sp.LoadFrac+sp.StoreFrac) > 0 && len(sp.Regions) == 0 {
		return nil, fmt.Errorf("program: spec %q has memory ops but no regions", sp.Name)
	}
	base := sp.Base
	if base == 0 {
		base = DefaultBase
	}

	g := &generator{
		sp:   sp,
		rng:  xrand.NewSplitMix(sp.Seed ^ 0xabcdef0123456789),
		prog: &Program{Name: sp.Name, Seed: sp.Seed, Base: base, Regions: sp.Regions, Entry: base},
	}
	g.normalizeBehaviors()
	g.partitionFunctions()
	g.layoutBlocks()
	g.fillBodies()
	g.placeTerminators()
	return g, nil
}

// MustGenerate is Generate but panics on error; for use with specs known
// valid at compile time (the built-in benchmark profiles).
func MustGenerate(sp Spec) *Program {
	p, err := Generate(sp)
	if err != nil {
		panic(err)
	}
	return p
}

type block struct {
	start, end int // instruction index range [start, end), end-1 is terminator slot
	fn         int // owning function
}

type generator struct {
	sp     Spec
	rng    *xrand.SplitMix
	prog   *Program
	blocks []block
	fnLo   []int // function -> first block
	fnHi   []int // function -> one past last block

	// Behaviour mixture and its stratified-allocation state.
	bw          []BehaviorWeight
	bwWeightSum float64
	bwAssigned  []int
	bwTotal     int

	// Per-site structural metadata, used by dynamic-mix calibration.
	siteBlock     []int   // owning block index
	siteInst      []int   // instruction index of the branch
	sitePaired    []bool  // member of a correlated pair (kind is fixed)
	sitePartner   []int32 // the other member of the pair (-1 if unpaired)
	siteFiller    []bool  // fixed biased filler inside a correlated pair
	siteModule    []bool  // self-targeting loop module (toggleable)
	siteFuncFirst []bool  // sits in a function's entry block (no loops)

	// moduleRotor spaces inactive loop-module creation among biased draws.
	moduleRotor int
}

func (g *generator) normalizeBehaviors() {
	for _, b := range g.sp.Behaviors {
		if b.Weight <= 0 {
			continue
		}
		g.bw = append(g.bw, b)
		g.bwWeightSum += b.Weight
	}
	if len(g.bw) == 0 {
		g.bw = []BehaviorWeight{{Kind: BehaviorBiased, Weight: 1, PTaken: 0.9}}
		g.bwWeightSum = 1
	}
	g.bwAssigned = make([]int, len(g.bw))
}

// drawBehavior assigns the next site's behaviour by stratified
// (largest-remainder) allocation rather than independent draws: each
// component's assigned count tracks weight * sitesSoFar as closely as
// possible. Independent draws would let a benchmark's few *hot* sites
// deviate wildly from the calibrated mixture; stratification interleaves
// components across the code so the dynamic mixture matches the static one.
func (g *generator) drawBehavior() BehaviorWeight {
	g.bwTotal++
	best, bestDeficit := 0, -1.0
	for i := range g.bw {
		w := g.bw[i].Weight / g.bwWeightSum
		deficit := w*float64(g.bwTotal) - float64(g.bwAssigned[i])
		if deficit > bestDeficit {
			bestDeficit = deficit
			best = i
		}
	}
	g.bwAssigned[best]++
	return g.bw[best]
}

// partitionFunctions splits the block index space into NumFuncs contiguous
// functions. The first function (main) gets a generous share so most
// execution time is spent there, as in real programs.
func (g *generator) partitionFunctions() {
	nb, nf := g.sp.NumBlocks, g.sp.NumFuncs
	g.fnLo = make([]int, nf)
	g.fnHi = make([]int, nf)
	mainShare := mainBlocks(nb)
	rest := nb - mainShare
	per := rest / max(1, nf-1)
	if per < 2 {
		per = 2
	}
	cur := 0
	for f := 0; f < nf; f++ {
		g.fnLo[f] = cur
		size := per
		if f == 0 {
			size = mainShare
		}
		if f == nf-1 {
			size = nb - cur
		}
		if size < 2 {
			size = 2
		}
		cur += size
		if cur > nb {
			cur = nb
		}
		g.fnHi[f] = cur
	}
	// If rounding left trailing blocks unassigned, give them to the last
	// function; if we overran, trim NumBlocks up to cur.
	if cur < nb {
		g.fnHi[nf-1] = nb
	}
}

// mainBlocks is the number of blocks main takes out of nb.
func mainBlocks(nb int) int { return max(2, nb/3) }

// layoutBlocks draws block lengths and assigns instruction index ranges.
func (g *generator) layoutBlocks() {
	g.blocks = make([]block, 0, g.sp.NumBlocks)
	idx := 0
	// Block lengths follow a geometric distribution around the mean, floored
	// at 60% of it: very short blocks would otherwise host self-loops whose
	// per-iteration branch density distorts the benchmark's calibrated
	// dynamic branch frequency.
	minLen := int(0.6 * g.sp.MeanBlockLen)
	if minLen < 2 {
		minLen = 2
	}
	for f := 0; f < g.sp.NumFuncs; f++ {
		for b := g.fnLo[f]; b < g.fnHi[f]; b++ {
			n := g.rng.Geometric(g.sp.MeanBlockLen)
			if n < minLen {
				n = minLen
			}
			if n > 64 {
				n = 64
			}
			g.blocks = append(g.blocks, block{start: idx, end: idx + n, fn: f})
			idx += n
		}
	}
	g.prog.Code = make([]isa.StaticInst, idx)
	for i := range g.prog.Code {
		g.prog.Code[i] = isa.StaticInst{
			PC:   g.prog.Base + uint64(i)*isa.InstBytes,
			Site: -1,
		}
	}
}

// fillBodies assigns operation classes and register operands to every
// non-terminator slot.
func (g *generator) fillBodies() {
	sp := g.sp
	// Ring of recent destination registers, used to draw dependences with a
	// geometric back-distance so ILP is controlled by DepMean.
	recent := make([]uint8, 0, 64)
	nextReg := uint8(1)
	pickSrc := func() uint8 {
		if len(recent) == 0 {
			return isa.RegZero
		}
		mean := sp.DepMean
		if mean < 1 {
			mean = 4
		}
		d := g.rng.Geometric(mean)
		if d > len(recent) {
			return isa.RegZero
		}
		return recent[len(recent)-d]
	}
	for _, b := range g.blocks {
		for i := b.start; i < b.end-1; i++ {
			si := &g.prog.Code[i]
			si.Class = g.drawClass()
			si.Src1 = pickSrc()
			if g.rng.Float64() < 0.6 {
				si.Src2 = pickSrc()
			}
			if si.Class != isa.ClassStore && si.Class != isa.ClassNop {
				si.Dest = nextReg
				recent = append(recent, nextReg)
				if len(recent) > 64 {
					recent = recent[1:]
				}
				nextReg++
				if nextReg == 0 || nextReg >= isa.NumArchRegs {
					nextReg = 1
				}
			}
			if si.Class.IsMem() {
				si.MemBase = uint32(g.rng.Intn(len(g.prog.Regions)))
			}
		}
		// The terminator slot also reads recent results: a branch's
		// condition depends on the computation (often a load chain) that
		// feeds it, which is what makes mispredicted branches resolve late
		// and gives prediction accuracy real performance leverage.
		term := &g.prog.Code[b.end-1]
		term.Src1 = pickSrc()
		if g.rng.Float64() < 0.5 {
			term.Src2 = pickSrc()
		}
	}
}

// drawClass samples a non-control operation class per the Spec's mix.
func (g *generator) drawClass() isa.Class {
	x := g.rng.Float64()
	sp := g.sp
	switch {
	case x < sp.LoadFrac:
		return isa.ClassLoad
	case x < sp.LoadFrac+sp.StoreFrac:
		return isa.ClassStore
	}
	// Remaining are computation; split FP vs integer, then carve mult/div.
	if g.rng.Float64() < sp.FPFrac {
		y := g.rng.Float64()
		switch {
		case y < sp.DivFrac:
			return isa.ClassFPDiv
		case y < sp.DivFrac+sp.MultFrac:
			return isa.ClassFPMult
		default:
			return isa.ClassFPALU
		}
	}
	y := g.rng.Float64()
	switch {
	case y < sp.DivFrac:
		return isa.ClassIntDiv
	case y < sp.DivFrac+sp.MultFrac:
		return isa.ClassIntMult
	default:
		return isa.ClassIntALU
	}
}

// placeTerminators fills the last slot of every block with its control
// transfer (or a body instruction for fall-through blocks) and builds the
// branch sites.
func (g *generator) placeTerminators() {
	sp := g.sp
	consumed := make([]bool, len(g.blocks))
	for bi, b := range g.blocks {
		if consumed[bi] {
			continue
		}
		si := &g.prog.Code[b.end-1]
		f := b.fn
		isFuncLast := bi+1 >= len(g.blocks) || g.blocks[bi+1].fn != f
		if isFuncLast {
			if f == 0 {
				// Main's last block loops back to the entry, closing the CFG.
				si.Class = isa.ClassJump
				si.Target = g.prog.Entry
			} else {
				si.Class = isa.ClassReturn
			}
			continue
		}
		x := g.rng.Float64()
		isFuncFirst := bi == g.fnLo[f]
		switch {
		case x < sp.CondFrac || isFuncFirst:
			// Every function's first block ends in a conditional branch:
			// this guarantees any cycle through the code (in particular the
			// outer main loop) contains a data-dependent divergence point,
			// so execution can never collapse onto a branch-free path.
			g.placeCondBranch(bi, si, consumed)
		case x < sp.CondFrac+sp.JumpFrac && g.lastBlockOfFn(f)-bi >= 2:
			// Unconditional jumps only ever go forward: a backward jump
			// could close an inescapable cycle. Too close to the function's
			// end, the slot falls through instead (default case below
			// handles it via this guard failing).
			si.Class = isa.ClassJump
			si.Target = g.forwardTarget(bi)
		case x < sp.CondFrac+sp.JumpFrac+sp.CallFrac && b.fn < g.sp.NumFuncs-1:
			// Calls target any strictly later function (a DAG, so recursion
			// is impossible), drawn uniformly so call-induced hotness
			// spreads instead of concentrating on the next function over.
			si.Class = isa.ClassCall
			callee := b.fn + 1 + g.rng.Intn(g.sp.NumFuncs-1-b.fn)
			si.Target = g.blockStartPC(g.fnLo[callee])
		default:
			// Fall-through: the slot becomes an ordinary body instruction.
			si.Class = g.drawClass()
			if si.Class != isa.ClassStore {
				si.Dest = uint8(1 + g.rng.Intn(isa.NumArchRegs-1))
			}
			if si.Class.IsMem() {
				si.MemBase = uint32(g.rng.Intn(len(g.prog.Regions)))
			}
		}
	}
}

// recordSite appends per-site structural metadata; it must be called once
// per appended site, in order.
func (g *generator) recordSite(bi int, si *isa.StaticInst, paired bool) {
	g.siteBlock = append(g.siteBlock, bi)
	g.siteInst = append(g.siteInst, int((si.PC-g.prog.Base)/isa.InstBytes))
	g.sitePaired = append(g.sitePaired, paired)
	g.sitePartner = append(g.sitePartner, -1)
	g.siteFiller = append(g.siteFiller, false)
	g.siteModule = append(g.siteModule, false)
	g.siteFuncFirst = append(g.siteFuncFirst, bi == g.fnLo[g.blocks[bi].fn])
}

// placeCondBranch turns slot si into a conditional branch with a behaviour
// site and a direction-appropriate target. Correlated draws construct a
// source/repeater pair across three blocks (see placeCorrelatedPair);
// consumed marks the extra blocks a pair claims.
func (g *generator) placeCondBranch(bi int, si *isa.StaticInst, consumed []bool) {
	bw := g.drawBehavior()
	funcFirst := bi == g.fnLo[g.blocks[bi].fn]
	// A function's entry block executes once per call, so a loop there
	// would have its trip-count amplification multiplied by the function's
	// call frequency, distorting the calibrated dynamic mixture; demote
	// entry-block loops to ordinary biased branches.
	if bw.Kind == BehaviorLoop && funcFirst {
		bw = BehaviorWeight{Kind: BehaviorBiased, Weight: bw.Weight, PTaken: 0.99}
	}
	if bw.Kind == BehaviorGlobalCorrelated && g.placeCorrelatedPair(bi, si, bw, consumed) {
		return
	}

	// Loop modules: self-targeting branches whose behaviour can be toggled
	// between an active loop and an almost-never-taken biased branch
	// WITHOUT changing flow topology (either way, control eventually exits
	// to the fall-through block). The closed-loop mixture calibration only
	// toggles modules, so reassignment never re-routes flow — the property
	// that makes calibration converge. Active modules come from loop draws;
	// every third biased draw contributes a dormant module as spare
	// capacity.
	if !funcFirst {
		if bw.Kind == BehaviorLoop {
			g.placeLoopModule(bi, si, true, bw)
			return
		}
		if bw.Kind == BehaviorBiased {
			g.moduleRotor++
			if g.moduleRotor%3 == 0 {
				g.placeLoopModule(bi, si, false, bw)
				return
			}
		}
	}

	site := Site{ID: int32(len(g.prog.Sites)), Kind: bw.Kind, Noise: bw.Noise}
	switch bw.Kind {
	case BehaviorBiased:
		site.PTaken = biasedPTaken(site.ID, bw.PTaken)
	case BehaviorLoop:
		// funcFirst demotion above turned loops into biased; this arm only
		// remains reachable for explicit non-module specs in tests.
		trips := int(bw.TripMean + 0.5)
		if trips < 2 {
			trips = 8
		}
		site.Kind = BehaviorLoop
		site.TripCount = uint32(trips)
	case BehaviorLocalPattern:
		maxLen := bw.PatternMaxLen
		if maxLen < 2 {
			maxLen = 8
		}
		if maxLen > 64 {
			maxLen = 64
		}
		n := 2 + g.rng.Intn(maxLen-1)
		site.PatternLen = uint32(n)
		site.Pattern = g.rng.Next() & ((1 << uint(n)) - 1)
	case BehaviorGlobalCorrelated:
		// Fallback when the pair structure did not fit: correlate on the
		// most recent outcome.
		site.HistMask = 1
	case BehaviorRandom:
		site.PTaken = 0.5
	}
	si.Class = isa.ClassBranch
	si.Site = site.ID
	if site.Kind == BehaviorLoop {
		si.Target = g.blockStartPC(bi)
	} else {
		si.Target = g.condForwardTarget(bi)
	}
	// Backward-edge safety. A correlated site on a backward edge could in
	// principle lock its own loop (parity becomes self-sustaining); a small
	// noise floor guarantees the loop always exits. A taken-biased site on a
	// backward edge (the function-tail fallback) would spin near-forever;
	// flip its polarity so it exits almost every visit.
	if si.Target <= si.PC {
		switch site.Kind {
		case BehaviorGlobalCorrelated:
			if site.Noise < 0.03 {
				site.Noise = 0.03
			}
		case BehaviorBiased:
			if site.PTaken > 0.5 {
				site.PTaken = 1 - site.PTaken
			}
		}
	}
	g.prog.Sites = append(g.prog.Sites, site)
	// A fallback standalone correlated site (pair didn't fit) stays fixed so
	// calibration doesn't erase the bim-to-gshare gap.
	g.recordSite(bi, si, site.Kind == BehaviorGlobalCorrelated)
}

// biasedPTaken mixes biased-branch polarity: alternate sites are biased
// not-taken instead of taken. Every predictor sees the same per-site
// accuracy either way, but mixed polarity makes aliasing in small tables
// destructive (sites fighting over a counter pull it in opposite
// directions), which is what actually degrades a 128-entry bimodal
// predictor in real code.
func biasedPTaken(id int32, p float64) float64 {
	if p == 0 {
		p = 0.95
	}
	if id%2 == 1 {
		return 1 - p
	}
	return p
}

// placeLoopModule emits a self-targeting branch at block bi. Active modules
// iterate TripMean times per entry; dormant ones are biased almost-never-
// taken, executing ~once per entry with the same exit flow.
func (g *generator) placeLoopModule(bi int, si *isa.StaticInst, active bool, bw BehaviorWeight) {
	site := Site{ID: int32(len(g.prog.Sites))}
	if active {
		trips := int(bw.TripMean + 0.5)
		if trips < 2 {
			trips = 8
		}
		site.Kind = BehaviorLoop
		site.TripCount = uint32(trips)
	} else {
		site.Kind = BehaviorBiased
		site.PTaken = ModuleDormantPTaken
	}
	si.Class = isa.ClassBranch
	si.Site = site.ID
	si.Target = g.blockStartPC(bi)
	g.prog.Sites = append(g.prog.Sites, site)
	g.recordSite(bi, si, false)
	g.siteModule[site.ID] = true
}

// placeCorrelatedPair builds the structure global-history prediction feeds
// on: an unpredictable *source* branch followed, a fixed number of branches
// later on every path, by a *repeater* whose outcome copies the source's.
//
//	block bi:        straight-line lead (terminator removed)
//	block bi+1:      source (random), hammock to bi+3
//	block bi+2:      straight-line
//	blocks bi+3 ...: m filler hammock branches (biased), alternating with
//	                 straight-line blocks
//	block bi+2m+3:   repeater (correlated, mask = bit m of global history)
//
// The straight-line lead matters: every other conditional in the program is
// a hammock that jumps two blocks ahead, so without the lead the hammock of
// the branch just before the pair would drop control *between* source and
// repeater, and the repeater would copy some unrelated (usually heavily
// biased) branch, becoming bimodal-predictable.
//
// The m biased fillers set the correlation *distance*: a predictor needs at
// least m+1 bits of global history to see the source's outcome, so pairs
// with large m separate long-history predictors (gshare-12) from
// short-history ones (GAs-5, small hybrids) — the paper's Figure 5
// size/history gradient. Half the pairs use m = 0 so that purely
// history-indexed components (the 21264 hybrid's) retain a constructive
// shared pattern. Fillers are fixed biased sites excluded from calibration.
//
// It returns false (letting the caller place an ordinary site) when the
// blocks don't fit inside the function.
func (g *generator) placeCorrelatedPair(bi int, si *isa.StaticInst, bw BehaviorWeight, consumed []bool) bool {
	f := g.blocks[bi].fn
	last := g.lastBlockOfFn(f)
	span := bw.HistSpan
	if span < 1 {
		span = 4
	}
	m := 0
	if g.rng.Float64() >= 0.5 && span > 1 {
		m = 1 + g.rng.Intn(span-1)
	}
	// The repeater sits at bi+2m+3 and needs a forward hammock (bi+2m+5).
	for m > 0 && bi+2*m+5 > last {
		m--
	}
	if bi+2*m+5 > last {
		return false
	}
	straighten := func(t *isa.StaticInst) {
		t.Class = g.drawClass()
		t.Site = -1
		t.Target = 0
		if t.Class != isa.ClassStore {
			t.Dest = uint8(1 + g.rng.Intn(isa.NumArchRegs-1))
		}
		if t.Class.IsMem() {
			t.MemBase = uint32(g.rng.Intn(len(g.prog.Regions)))
		}
	}
	placeBranch := func(blk int, site Site, filler bool) {
		g.prog.Sites = append(g.prog.Sites, site)
		t := &g.prog.Code[g.blocks[blk].end-1]
		t.Class = isa.ClassBranch
		t.Site = site.ID
		t.Target = g.blockStartPC(blk + 2)
		g.recordSite(blk, t, !filler)
		g.siteFiller[site.ID] = filler
		consumed[blk] = true
	}

	// Block bi: the straight-line lead (si is its terminator slot).
	straighten(si)

	// Source: a random site in block bi+1, hammocking over bi+2.
	srcID := int32(len(g.prog.Sites))
	placeBranch(bi+1, Site{ID: srcID, Kind: BehaviorRandom, PTaken: 0.5}, false)
	straighten(&g.prog.Code[g.blocks[bi+2].end-1])
	consumed[bi+2] = true

	// Fillers: biased hammocks, one branch each on every path.
	for j := 0; j < m; j++ {
		fid := int32(len(g.prog.Sites))
		placeBranch(bi+3+2*j, Site{ID: fid, Kind: BehaviorBiased, PTaken: 0.995}, true)
		straighten(&g.prog.Code[g.blocks[bi+4+2*j].end-1])
		consumed[bi+4+2*j] = true
	}

	// Repeater: correlated on bit m of the global outcome history.
	// Repeaters are uniformly non-inverted so that purely history-indexed
	// predictor components share their patterns constructively.
	repID := int32(len(g.prog.Sites))
	rep := Site{ID: repID, Kind: BehaviorGlobalCorrelated, HistMask: 1 << uint(m), Noise: bw.Noise}
	repBlk := bi + 2*m + 3
	placeBranch(repBlk, rep, false)
	g.sitePartner[srcID] = repID
	g.sitePartner[repID] = srcID
	return true
}

// condForwardTarget returns the hammock target for a non-loop conditional
// branch: the start of block bi+2, so the taken path skips exactly one
// block and reconverges immediately, like a compiled if/else. Quick
// reconvergence keeps block visit rates almost independent of branch
// directions, which is what lets closed-loop mixture calibration converge:
// reassigning a site's behaviour barely changes which blocks are hot.
// Near a function's tail the branch falls back to a backward target.
func (g *generator) condForwardTarget(bi int) uint64 {
	last := g.lastBlockOfFn(g.blocks[bi].fn)
	if bi+2 <= last {
		return g.blockStartPC(bi + 2)
	}
	return g.backwardTarget(bi)
}

// forwardTarget picks the start of a later block in the same function
// (geometrically near). The distance is at least 2 blocks so a taken target
// never coincides with the fall-through path (block bi+1's start), which
// would make direction irrelevant to control flow; when the function is too
// short for that, the branch targets its own function's earlier blocks
// instead.
func (g *generator) forwardTarget(bi int) uint64 {
	f := g.blocks[bi].fn
	hi := g.lastBlockOfFn(f)
	span := hi - bi
	if span < 2 {
		return g.backwardTarget(bi)
	}
	d := 1 + g.rng.Geometric(2)
	if d > span {
		d = span
	}
	return g.blockStartPC(bi + d)
}

// backwardTarget picks the start of an earlier block in the same function
// (geometrically near), forming a natural loop.
func (g *generator) backwardTarget(bi int) uint64 {
	f := g.blocks[bi].fn
	lo := g.firstBlockOfFn(f)
	if bi <= lo {
		return g.blockStartPC(bi)
	}
	span := bi - lo
	d := g.rng.Geometric(2)
	if d > span {
		d = span
	}
	return g.blockStartPC(bi - d)
}

// Blocks are appended in function order, so the fnLo/fnHi partition indexes
// g.blocks directly.
func (g *generator) firstBlockOfFn(f int) int { return g.fnLo[f] }

func (g *generator) lastBlockOfFn(f int) int { return g.fnHi[f] - 1 }

func (g *generator) blockStartPC(bi int) uint64 {
	return g.prog.Base + uint64(g.blocks[bi].start)*isa.InstBytes
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

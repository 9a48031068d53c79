package cpu

import "bpredpower/internal/power"

// idleCycles returns how many cycles, starting with the current one and at
// most limit, are provably idle: cycles in which no stage would change any
// state or touch any power unit, so stepping them would only advance the
// clocks. Run skips them in one jump (DESIGN.md §9f, "Idle-cycle skipping").
//
// The current cycle is idle when every stage is blocked:
//
//   - writeback: the current event-wheel row is empty;
//   - commit: the done run at the head is empty and the L2 has no accesses
//     still to be charged (commit charges them one cycle late);
//   - issue: no entry is ready;
//   - dispatch: the fetch queue is empty, its head is still in the front-end
//     pipe, or the RUU (or, for a memory op, the LSQ) is full;
//   - fetch: it is stalled or halted, or the fetch queue is full while the
//     gate is not stalling (a gate stall counts GatedCycles, so is work).
//
// None of that can change until an event: the next non-empty wheel row, the
// head's readyAt when only that blocks dispatch, or fetchStallUntil when only
// that blocks fetch. The stretch runs up to the earliest of them.
//
// Skipping needs deferred accounting, where an idle cycle's only meter effect
// is the cycle count; the eager modes always step and stay the reference.
//
//bp:hotpath
//bp:unit limit cycle
//bp:unit cycle
func (s *Sim) idleCycles(limit uint64) uint64 {
	if limit == 0 || s.meter.Accounting != power.AccountDeferred {
		return 0
	}
	for _, w := range s.readyBits {
		if w != 0 {
			return 0
		}
	}
	if s.commitRun() != 0 || s.l2.Stats().Accesses != s.lastL2Accesses {
		return 0
	}
	now := s.cycle
	end := now + limit // first cycle past the stretch

	// Halted fetch, and a full queue with the gate open, wait for an event.
	if !s.fetchHalted && (s.fqLen < s.fqCap || s.gate.ShouldStallFetch()) {
		if now >= s.fetchStallUntil {
			return 0
		}
		if s.fetchStallUntil < end {
			end = s.fetchStallUntil
		}
	}

	// An empty queue, and a full RUU or LSQ, wait for an event.
	if s.fqLen > 0 {
		fqi := s.fqHead
		full := s.robCount() >= s.cfg.RUUSize ||
			s.fq.flags[fqi]&fIsMem != 0 && s.lsqUsed >= s.cfg.LSQSize
		if !full {
			r := s.fq.readyAt[fqi]
			if now >= r {
				return 0
			}
			if r < end {
				end = r
			}
		}
	}

	// Every pending completion lies within one wheel span of now, so the
	// first non-empty row at or after now is the next writeback event, and
	// a span of empty rows means there is none. Rows are contiguous, so the
	// scan is a flat word walk in at most two segments around the wrap.
	rows := end - now
	if rows > s.wheelRows {
		rows = s.wheelRows
	}
	nw := uint64(s.nw)
	row := now & s.wheelMask
	for done := uint64(0); done < rows; {
		seg := s.wheelRows - row
		if seg > rows-done {
			seg = rows - done
		}
		for i, w := range s.wheel[row*nw : (row+seg)*nw] {
			if w != 0 {
				return done + uint64(i)/nw
			}
		}
		done += seg
		row = 0
	}
	return end - now
}

// skipIdle advances the machine over k idle cycles (see idleCycles): the
// simulator clock, Stats.Cycles and the meter's clock move, nothing else.
//
//bp:hotpath
//bp:unit k cycle
func (s *Sim) skipIdle(k uint64) {
	s.meter.EndIdleCycles(k)
	s.stats.Cycles += k
	s.cycle += k
}

package cache

import (
	"math/rand/v2"
	"testing"
)

// clone deep-copies the reference model, for snapshots.
func (r *refTLB) clone() *refTLB {
	c := *r
	c.tags = append([]uint64(nil), r.tags...)
	c.valid = append([]bool(nil), r.valid...)
	c.lru = append([]uint64(nil), r.lru...)
	return &c
}

func (r *refTLB) holds(vpn uint64) bool {
	for i, tag := range r.tags {
		if r.valid[i] && tag == vpn {
			return true
		}
	}
	return false
}

// hintStream draws page numbers that stress the hint table: a hot set that
// fits the TLB, pages that share hint slots with it (vpn + k*tlbHintSlots),
// and a cold set larger than the TLB that forces evictions.
func hintStream(rng *rand.Rand, entries int) uint64 {
	switch n := rng.IntN(10); {
	case n < 5: // hot set
		return uint64(rng.IntN(entries / 2))
	case n < 8: // hint-slot collisions with the hot set
		return uint64(rng.IntN(entries/2)) + uint64(1+rng.IntN(3))*tlbHintSlots
	default: // capacity-busting cold set
		return 1000 + uint64(rng.IntN(4*entries))
	}
}

// TestTLBHintMatchesScanReference drives a seeded page stream through the
// hinted TLB and through the plain linear-scan model — from a cold TLB with
// invalid entries, across hint-slot collisions, and across a SetState back
// to an earlier snapshot that leaves every hint written since then stale —
// and requires identical latency, counters and per-entry tag, valid bit and
// LRU stamp at every step. It also checks that the stream really produced
// verified hint hits and hits behind a stale or colliding hint.
func TestTLBHintMatchesScanReference(t *testing.T) {
	const entries, pageBytes, missPen, steps = 32, 8192, 30, 60000
	tlb := NewTLB(entries, pageBytes, missPen)
	ref := newRefTLB(entries, tlb.pageBits)
	rng := rand.New(rand.NewPCG(12, 34))

	var (
		want                Stats
		snap                TLBState
		refSnap             *refTLB
		wantSnap            Stats
		hintHits, staleHint int
	)
	for i := 0; i < steps; i++ {
		switch i {
		case steps / 3:
			snap, refSnap, wantSnap = tlb.State(), ref.clone(), want
		case 2 * steps / 3:
			tlb.SetState(snap)
			ref, want = refSnap.clone(), wantSnap
		}
		vpn := hintStream(rng, entries)
		addr := vpn<<tlb.pageBits | uint64(rng.IntN(pageBytes))

		// Classify the hits the MRU check misses: the hint either names the
		// entry (a verified hint hit) or not (the scan must find it).
		if m := &tlb.entries[tlb.mru]; ref.holds(vpn) && !(m.valid && m.tag == vpn) {
			if h := &tlb.entries[tlb.hint[vpn&(tlbHintSlots-1)]]; h.valid && h.tag == vpn {
				hintHits++
			} else {
				staleHint++
			}
		}

		got := tlb.Access(addr)
		wantLat := missPen
		want.Accesses++
		if ref.access(addr) {
			wantLat = 0
			want.Hits++
		} else {
			want.Misses++
		}
		if got != wantLat {
			t.Fatalf("step %d (vpn %d): latency %d, reference %d", i, vpn, got, wantLat)
		}
		if tlb.Stats() != want || tlb.clock != ref.clock {
			t.Fatalf("step %d: stats %+v clock %d, reference %+v clock %d", i, tlb.Stats(), tlb.clock, want, ref.clock)
		}
		for j, e := range tlb.entries {
			if e.valid != ref.valid[j] || e.tag != ref.tags[j] || e.lru != ref.lru[j] {
				t.Fatalf("step %d: entry %d = %+v, reference valid=%v tag=%d lru=%d", i, j, e, ref.valid[j], ref.tags[j], ref.lru[j])
			}
		}
	}
	if hintHits == 0 || staleHint == 0 {
		t.Fatalf("stream did not exercise the hint: %d verified hint hits, %d hits behind a stale or colliding hint", hintHits, staleHint)
	}
	if want.Misses == 0 || want.Hits == 0 {
		t.Fatal("degenerate stream: need both hits and misses")
	}
}

// TLB.Access sits on the per-cycle path: the hint table is a fixed array in
// the TLB, so a lookup never allocates.
func TestTLBAccessDoesNotAllocate(t *testing.T) {
	tlb := NewTLB(128, 8192, 30)
	vpn := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		vpn = (vpn + 97) % 300
		tlb.Access(vpn << tlb.pageBits)
	})
	if allocs != 0 {
		t.Fatalf("TLB.Access allocates %v times per call", allocs)
	}
}

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/power"
)

// fakeRun builds a distinguishable Run for key i.
func fakeRun(i int) experiments.Run {
	return experiments.Run{
		Benchmark:   fmt.Sprintf("bench-%d", i),
		Machine:     "test",
		Accuracy:    0.5 + float64(i)/1000,
		IPC:         1.25,
		BpredPower:  0.125 + float64(i),
		TotalPower:  40.5,
		BpredEnergy: 1e-6 * float64(i+1),
		TotalEnergy: 2e-4,
		EnergyDelay: 3.0000000000000004e-8, // exercise float64 round-trip exactness
		CondFreq:    0.14,
		Fetched:     uint64(100000 + i),
		Committed:   uint64(60000 + i),
	}
}

func optFor(i int) cpu.Options {
	return cpu.Options{Predictor: bpred.Hybrid1, BankedPredictor: i%2 == 1}
}

func fakeActivity(i int) experiments.ActivityRecord {
	return experiments.ActivityRecord{
		Run: fakeRun(i),
		Activity: power.Activity{
			Cycles: uint64(100000 + i),
			Units: []power.UnitActivity{
				{Name: "bpred.pht", ActiveCycles: 9000, Reads: uint64(12000 + i), Writes: 800, Partials: 3},
				{Name: "il1.data", ActiveCycles: 70000, Reads: 65000, Writes: 1200},
			},
		},
	}
}

// kindCase drives one entry kind through the store's public API, so the
// round-trip and corruption contracts are checked for both kinds by one
// table.
type kindCase struct {
	name string
	kind kind
	save func(s *Store, bench string, opt cpu.Options, rc experiments.RunConfig, i int)
	load func(s *Store, bench string, opt cpu.Options, rc experiments.RunConfig) (any, bool)
	want func(i int) any
	act  int // ActivityEntries per entry of this kind
}

func kindCases() []kindCase {
	return []kindCase{
		{
			name: "run",
			kind: runKind,
			save: func(s *Store, bench string, opt cpu.Options, rc experiments.RunConfig, i int) {
				s.Save(bench, opt, rc, fakeRun(i))
			},
			load: func(s *Store, bench string, opt cpu.Options, rc experiments.RunConfig) (any, bool) {
				return s.Load(bench, opt, rc)
			},
			want: func(i int) any { return fakeRun(i) },
		},
		{
			name: "activity",
			kind: activityKind,
			save: func(s *Store, bench string, opt cpu.Options, rc experiments.RunConfig, i int) {
				s.SaveActivity(bench, opt, rc, fakeActivity(i))
			},
			load: func(s *Store, bench string, opt cpu.Options, rc experiments.RunConfig) (any, bool) {
				return s.LoadActivity(bench, opt, rc)
			},
			want: func(i int) any { return fakeActivity(i) },
			act:  1,
		},
	}
}

func TestRoundTrip(t *testing.T) {
	cases := kindCases()
	for ci, c := range cases {
		other := cases[1-ci]
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			rc := experiments.Quick

			if _, ok := c.load(s, "164.gzip", optFor(0), rc); ok {
				t.Fatal("load on empty store reported a hit")
			}
			c.save(s, "164.gzip", optFor(0), rc, 0)
			got, ok := c.load(s, "164.gzip", optFor(0), rc)
			if !ok {
				t.Fatal("load after save missed")
			}
			if !reflect.DeepEqual(got, c.want(0)) {
				t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, c.want(0))
			}

			// A different Options value must not alias.
			if _, ok := c.load(s, "164.gzip", optFor(1), rc); ok {
				t.Fatal("distinct Options aliased to the same entry")
			}
			// Nor a different RunConfig.
			if _, ok := c.load(s, "164.gzip", optFor(0), experiments.Default); ok {
				t.Fatal("distinct RunConfig aliased to the same entry")
			}

			st := s.Stats()
			if st.Hits != 1 || st.Misses != 3 || st.Puts != 1 || st.Entries != 1 || st.ActivityEntries != c.act {
				t.Fatalf("stats = %+v, want 1 hit / 3 misses / 1 put / 1 entry, %d activity", st, c.act)
			}

			// The other kind must not alias this one: the same (bench, opt,
			// rc) holds both entry kinds independently.
			if _, ok := other.load(s, "164.gzip", optFor(0), rc); ok {
				t.Fatalf("%s entry answered a %s load", c.name, other.name)
			}
			other.save(s, "164.gzip", optFor(0), rc, 1)
			if got, ok := c.load(s, "164.gzip", optFor(0), rc); !ok || !reflect.DeepEqual(got, c.want(0)) {
				t.Fatalf("%s save overwrote the %s entry: %+v ok=%v", other.name, c.name, got, ok)
			}
			if st := s.Stats(); st.Entries != 2 || st.ActivityEntries != 1 {
				t.Fatalf("stats = %+v, want 2 entries of which 1 activity", st)
			}

			// A fresh handle rescans both kinds.
			s2, err := Open(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if st := s2.Stats(); st.Entries != 2 || st.ActivityEntries != 1 {
				t.Fatalf("rescan stats = %+v", st)
			}
		})
	}
}

// TestTwoHandles exercises the cross-process story: replica B sees what
// replica A wrote, and vice versa, through independent handles on one
// directory.
func TestTwoHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := experiments.Quick
	a.Save("164.gzip", optFor(0), rc, fakeRun(1))

	b, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Entries != 1 {
		t.Fatalf("second handle scanned %d entries, want 1", st.Entries)
	}
	got, ok := b.Load("164.gzip", optFor(0), rc)
	if !ok || got != fakeRun(1) {
		t.Fatalf("second handle load = %+v ok=%v", got, ok)
	}
	b.Save("175.vpr", optFor(0), rc, fakeRun(2))
	if got, ok := a.Load("175.vpr", optFor(0), rc); !ok || got != fakeRun(2) {
		t.Fatalf("first handle missed the second handle's write: %+v ok=%v", got, ok)
	}
}

// TestCorruptionTolerated covers the crash-safety contract for both entry
// kinds: truncated or garbled entries are misses, get deleted, and the next
// save rewrites them.
func TestCorruptionTolerated(t *testing.T) {
	for _, c := range kindCases() {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			rc := experiments.Quick
			c.save(s, "164.gzip", optFor(0), rc, 3)
			path := s.entryPath(c.kind, keyString(c.kind, "164.gzip", optFor(0), rc))
			if !strings.HasSuffix(path, c.kind.suffix) {
				t.Fatalf("entry path %s lacks the %s suffix", path, c.kind.suffix)
			}

			for _, m := range []struct {
				name   string
				mutate func() error
			}{
				{"truncated", func() error {
					data, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					return os.WriteFile(path, data[:len(data)/2], 0o644)
				}},
				{"garbled", func() error {
					return os.WriteFile(path, []byte("{\"key\":\"wrong\",\"run\":{},\"record\":{}}\n"), 0o644)
				}},
				{"empty", func() error {
					return os.WriteFile(path, nil, 0o644)
				}},
			} {
				if err := m.mutate(); err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if _, ok := c.load(s, "164.gzip", optFor(0), rc); ok {
					t.Fatalf("%s entry loaded as a hit", m.name)
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("%s entry not deleted on load", m.name)
				}
				if st := s.Stats(); st.Entries != 0 || st.ActivityEntries != 0 {
					t.Fatalf("stats after %s corruption = %+v, want no entries", m.name, st)
				}
				// The next save must bring the entry back, readable.
				c.save(s, "164.gzip", optFor(0), rc, 3)
				if got, ok := c.load(s, "164.gzip", optFor(0), rc); !ok || !reflect.DeepEqual(got, c.want(3)) {
					t.Fatalf("rewrite after %s corruption failed: %+v ok=%v", m.name, got, ok)
				}
			}
			if st := s.Stats(); st.Corrupt != 3 {
				t.Fatalf("corrupt counter = %d, want 3", st.Corrupt)
			}
		})
	}
}

// TestStrayTempIgnored: a temp file left by a crashed writer must not count
// as an entry or break a scan.
func TestStrayTempIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".put-12345"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("stray temp counted as %d entries", st.Entries)
	}
}

func TestGCBound(t *testing.T) {
	dir := t.TempDir()
	// Measure one entry's size, then bound the store to about three.
	probe, err := Open(dir, Config{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rc := experiments.Quick
	probe.Save("probe", optFor(0), rc, fakeRun(0))
	entrySize := probe.Stats().Bytes
	if entrySize == 0 {
		t.Fatal("probe entry has zero size")
	}
	os.RemoveAll(dir)

	s, err := Open(dir, Config{MaxBytes: 3*entrySize + entrySize/2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.Save(fmt.Sprintf("bench-%d", i), optFor(0), rc, fakeRun(i))
	}
	st := s.Stats()
	if st.Bytes > 3*entrySize+entrySize/2 {
		t.Fatalf("store holds %d bytes, bound is %d", st.Bytes, 3*entrySize+entrySize/2)
	}
	if st.Evicted == 0 {
		t.Fatal("GC evicted nothing despite exceeding the bound")
	}
	if st.Entries == 0 {
		t.Fatal("GC emptied the store; newest entries should survive")
	}
	// The most recent write should still be resident (oldest-first policy).
	if _, ok := s.Load("bench-7", optFor(0), rc); !ok {
		t.Error("newest entry evicted; GC should delete oldest-first")
	}
}

func TestUnboundedNeverGCs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rc := experiments.Quick
	for i := 0; i < 16; i++ {
		s.Save(fmt.Sprintf("bench-%d", i), optFor(0), rc, fakeRun(i))
	}
	if st := s.Stats(); st.Evicted != 0 || st.Entries != 16 {
		t.Fatalf("unbounded store evicted: %+v", st)
	}
}

// TestGCUnderLoad races concurrent Saves and Loads against GC passes from
// two handles; run under -race this is the store's concurrency audit. The
// only invariant strong enough to hold under eviction is "no torn reads":
// every Load either misses or returns the exact Run that was saved.
func TestGCUnderLoad(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(dir, Config{MaxBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	h1, h2 := open(), open()
	rc := experiments.Quick

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := h1
			if w%2 == 1 {
				s = h2
			}
			for i := 0; i < 50; i++ {
				k := (w*50 + i) % 20
				s.Save(fmt.Sprintf("bench-%d", k), optFor(0), rc, fakeRun(k))
				if got, ok := s.Load(fmt.Sprintf("bench-%d", k), optFor(0), rc); ok && got != fakeRun(k) {
					t.Errorf("torn read: key %d returned %+v", k, got)
				}
			}
		}(w)
	}
	wg.Wait()

	// Post-race, a fresh handle must be able to read every surviving entry.
	h3 := open()
	for i := 0; i < 20; i++ {
		if got, ok := h3.Load(fmt.Sprintf("bench-%d", i), optFor(0), rc); ok && got != fakeRun(i) {
			t.Errorf("survivor %d corrupt: %+v", i, got)
		}
	}
}

// TestKeyStringComplete guards the complete-by-construction property: the
// rendered key must mention every exported Options field name, so a new
// field can't silently alias entries, and the two kinds' keys must differ.
func TestKeyStringComplete(t *testing.T) {
	keys := map[string]bool{}
	for _, c := range kindCases() {
		key := keyString(c.kind, "164.gzip", cpu.Options{Predictor: bpred.Hybrid1}, experiments.Quick)
		for _, field := range []string{"Predictor", "BankedPredictor", "WarmupInsts", "MeasureInsts"} {
			if !strings.Contains(key, field) {
				t.Errorf("%s keyString omits %s: %q", c.name, field, key)
			}
		}
		if !strings.HasPrefix(key, fmt.Sprintf("v%d|", schemaVersion)) {
			t.Errorf("%s keyString missing schema version prefix: %q", c.name, key)
		}
		keys[key] = true
	}
	if len(keys) != len(kindCases()) {
		t.Errorf("entry kinds share a key: %v", keys)
	}
}

// The store implements the cache's ActivityStore contract, so replicas
// sharing a directory reprice instead of re-simulating.
func TestStoreImplementsActivityStore(t *testing.T) {
	var _ experiments.ActivityStore = (*Store)(nil)
}

func TestOpenOnFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Config{}); err == nil {
		t.Fatal("Open on a regular file succeeded")
	}
}

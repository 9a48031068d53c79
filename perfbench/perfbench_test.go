package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/workload"
)

// tinySizes is the smallest benchmark: every stage and phase runs, on
// minimal windows and request counts.
func tinySizes() sizes {
	return sizes{
		setupReps:     1,
		warmupInsts:   2000,
		windowInsts:   5000,
		probeInsts:    5000,
		figureRC:      experiments.RunConfig{WarmupInsts: 1000, MeasureInsts: 2000},
		keys:          6,
		warmRequests:  20,
		restarts:      1,
		sweeps:        1,
		sweepPreds:    1,
		cancels:       1,
		cancelRepeats: 2,
		cancelInsts:   100_000,
		cancelDelay:   time.Millisecond,
	}
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSmallestRunEmitsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl + "/untraced"
			want := spec.EndToEnd
			if traced {
				name, want = wl+"/traced", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: wl, seed: 5, trace: traced, reference: "../experiments_output.txt",
					spec: "../BENCHMARK.json", workdir: t.TempDir(), sz: tinySizes()}
				var log bytes.Buffer
				res, err := bench(o, &log)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := report(&out, o, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct           *bool
					Attempted, Failed *int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if last.Correct == nil || last.Attempted == nil || last.Failed == nil || *last.Attempted < 1 {
					t.Fatalf("result object lacks correct/attempted/failed: %s", lines[len(lines)-1])
				}
				var got, names []string
				for n := range last.Metrics {
					got = append(got, n)
				}
				for _, m := range want {
					names = append(names, m.Name)
					if last.Metrics[m.Name].Unit != m.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, last.Metrics[m.Name].Unit, m.Unit)
					}
				}
				sort.Strings(got)
				sort.Strings(names)
				if !reflect.DeepEqual(got, names) {
					t.Errorf("metrics %v, want %v", got, names)
				}
			})
		}
	}
}

func TestCorruptedSectionIsAFailedOperation(t *testing.T) {
	data, err := os.ReadFile("../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	ref := string(data)
	start := strings.Index(ref, "Table 2:")
	end := strings.Index(ref[start:], "\n\n")
	if start < 0 || end < 0 {
		t.Fatal("no Table 2 section in the reference output")
	}
	section := ref[start : start+end+1]

	rec := newResult()
	checkSection(rec, ref, "table2", section)
	if rec.attempted != 1 || rec.failed != 0 {
		t.Fatalf("intact section: attempted %d failed %d", rec.attempted, rec.failed)
	}
	corrupt := strings.Replace(section, "%", "#", 1)
	checkSection(rec, ref, "table2", corrupt)
	if rec.attempted != 2 || rec.failed != 1 {
		t.Fatalf("corrupted section: attempted %d failed %d", rec.attempted, rec.failed)
	}
}

func TestPerturbedDigestIsAFailedOperation(t *testing.T) {
	b, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	sim := cpu.MustNew(b.Program(), cpu.Options{Predictor: bpred.Bim4k})
	defer sim.Release()
	sim.Run(2000)
	warm := sim.Checkpoint()
	window := func() string {
		sim.Restore(warm)
		sim.ResetMeasurement()
		sim.Run(5000)
		return simDigest(sim)
	}
	d := window()
	if again := window(); again != d {
		t.Fatalf("a restored window gave digest %s, then %s", d, again)
	}
	key := digestKey("164.gzip.Bim_4k", 2000, 5000)
	rec := newResult()
	checkDigest(rec, map[string]string{key: d}, key, d)
	if rec.failed != 0 {
		t.Fatalf("recorded digest failed: %v", rec.problems)
	}
	perturbed := "x" + d[1:]
	checkDigest(rec, map[string]string{key: perturbed}, key, d)
	checkDigest(rec, map[string]string{}, key, d)
	if rec.attempted != 3 || rec.failed != 2 {
		t.Fatalf("perturbed and missing digests: attempted %d failed %d", rec.attempted, rec.failed)
	}
}

func TestSeedFixesRequestSequence(t *testing.T) {
	sz := fullSizes()
	a, b := makeServePlan(7, sz), makeServePlan(7, sz)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two request sequences")
	}
	if reflect.DeepEqual(a, makeServePlan(8, sz)) {
		t.Fatal("seeds 7 and 8 gave the same request sequence")
	}
	seen := map[key]bool{}
	for _, k := range a.cold {
		seen[k] = true
	}
	if len(a.cold) != 308 || len(seen) != 308 {
		t.Fatalf("cold phase has %d requests over %d keys, want each of the 308 keys once", len(a.cold), len(seen))
	}
	if len(a.warm) != sz.warmRequests || len(a.sweeps) != sz.sweeps || len(a.restarts) != sz.restarts ||
		len(a.cancels) != sz.cancels*sz.cancelRepeats {
		t.Fatalf("plan sizes: warm %d sweeps %d restarts %d cancels %d", len(a.warm), len(a.sweeps), len(a.restarts), len(a.cancels))
	}
	// The abandoned requests are the same keys, each sz.cancelRepeats
	// times, for every seed: only their order is drawn.
	count := func(keys []key) map[key]int {
		m := map[key]int{}
		for _, k := range keys {
			m[k]++
		}
		return m
	}
	want := count(makeServePlan(8, sz).cancels)
	if got := count(a.cancels); !reflect.DeepEqual(got, want) || len(got) != sz.cancels {
		t.Fatalf("cancel keys %v differ between seeds (%v) or are not %d keys", got, want, sz.cancels)
	}
	for _, n := range want {
		if n != sz.cancelRepeats {
			t.Fatalf("a cancel key is sent %d times, want %d", n, sz.cancelRepeats)
		}
	}
	grids := map[string]bool{}
	for _, s := range a.sweeps {
		grids[strings.Join(s, ",")] = true
	}
	if len(grids) != len(a.sweeps) {
		t.Fatal("sweep grids repeat, so a repeat would be replayed instead of served")
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "handler", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "wait", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "sim", Start: ms(3), End: ms(6)},
		{ID: 4, Parent: 1, Name: "late", Start: ms(8), End: ms(12)},
		{ID: 5, Parent: 3, Name: "inner", Start: ms(4), End: ms(5)},
	}
	self := selfTimes(spans)
	// Children cover 1-6 and 8-10 of the handler; the part of "late" past
	// its parent's end does not count.
	for id, want := range map[uint64]time.Duration{1: ms(3), 2: ms(3), 3: ms(2), 4: ms(4), 5: ms(1)} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
}

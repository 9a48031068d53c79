package program_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bpredpower/internal/program"
	"bpredpower/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestWorkloadImageDigests pins the encoded bytes of every benchmark's
// calibrated program image. Generation is deterministic, so a digest change
// means a change to the generator or the calibration walk altered some
// image — and with it every number the simulator reports for that
// benchmark. Pass -update only for a deliberate change of the images.
func TestWorkloadImageDigests(t *testing.T) {
	var got bytes.Buffer
	for _, b := range workload.All() {
		var img bytes.Buffer
		if err := b.Program().Encode(&img); err != nil {
			t.Fatalf("%s: encode: %v", b.Name, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(img.Bytes()), b.Name)
	}
	path := filepath.Join("testdata", "image_digests.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run %s -update` to create it): %v", t.Name(), err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("image digests differ from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// TestSiteCountWalkMatchesWalker checks the block-stepped calibration walk
// against the per-instruction Walker on every benchmark: the site counts
// of every calibration round, and the counts at the block-boundary budgets
// on each final image.
func TestSiteCountWalkMatchesWalker(t *testing.T) {
	for _, b := range workload.All() {
		t.Run(b.Name, func(t *testing.T) {
			program.CheckCalibrationRounds(t, b.Spec)
			program.CheckSiteCountBudgets(t, b.Program())
		})
	}
}

// imageSink keeps BenchmarkGenerate's result live.
var imageSink *program.Program

// BenchmarkGenerate times calibrated image generation for an integer
// benchmark, a large-image integer benchmark and a floating-point one.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"164.gzip", "255.vortex", "171.swim"} {
		bm, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := program.Generate(bm.Spec)
				if err != nil {
					b.Fatal(err)
				}
				imageSink = p
			}
		})
	}
}

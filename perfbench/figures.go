package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"time"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/workload"
)

// figure is one figure call of the suite, in the CLI's order.
type figure struct {
	name string
	fn   func(*experiments.Harness, io.Writer)
}

// suiteFigures is the figure subset the figures stage regenerates, in CLI
// order: Table 2 and the gating-style study of Figure 23 (seven folds per
// benchmark). Figures 2, 16/17 and 19 (about 11 s, 2.3 s and 4 s) are left
// out so that every run, which regenerates the suite once, stays short.
var suiteFigures = []figure{
	{"table2", experiments.Table2},
	{"figure23", experiments.ExtensionGatingStyles},
}

// checkSection counts one figure's output as failed unless it occurs byte
// for byte in the reference output.
func checkSection(rec *result, ref, name, out string) {
	rec.check(out != "" && strings.Contains(ref, out), "figures %s: output is not a section of the reference output", name)
}

// suite is one regeneration of the figure subset on a fresh harness. Its
// figures are called one per cycle of the run, in CLI order, so the suite's
// time is the sum of its figure calls.
type suite struct {
	h     *experiments.Harness
	ref   string
	tr    *tracer
	rec   *result
	total time.Duration
}

func newSuite(rc experiments.RunConfig, ref string, tr *tracer, rec *result) *suite {
	return &suite{h: experiments.NewHarness(rc), ref: ref, tr: tr, rec: rec}
}

// figure regenerates one figure, times it and checks its output.
func (s *suite) figure(f figure) {
	var buf bytes.Buffer
	sp := s.tr.start("experiments.figure."+f.name, 0, "")
	t0 := now()
	f.fn(s.h, &buf)
	d := since(t0)
	sp.end()
	s.total += d
	s.rec.sample("experiments.figure_s."+f.name, d.Seconds())
	checkSection(s.rec, s.ref, f.name, buf.String())
}

// finish records the harness's simulation and fold counts and the Table 2
// error; Table 2 must have been regenerated.
func (s *suite) finish() {
	rs := s.h.RepriceStats()
	s.rec.set("experiments.simulations", float64(rs.Simulations), "count")
	s.rec.set("experiments.folds", float64(rs.Folds), "count")
	s.rec.set("table2_err_pp", table2Error(s.h), "pp")
}

// table2Error is the mean absolute difference, in percentage points, between
// the measured and the paper's bimodal-16K and gshare-16K rates of Table 2.
// The runs are memo hits on a harness that has regenerated Table 2.
func table2Error(h *experiments.Harness) float64 {
	var sum float64
	var n int
	for _, b := range workload.All() {
		bim := h.Simulate(b, cpu.Options{Predictor: bpred.Bim16k})
		gsh := h.Simulate(b, cpu.Options{Predictor: bpred.Gsh16k12})
		sum += math.Abs(100*bim.Accuracy-100*b.PaperBimod16K) + math.Abs(100*gsh.Accuracy-100*b.PaperGshare16K)
		n += 2
	}
	return sum / float64(n)
}

package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/mosbench"
)

func TestMetricNamesFollowTheGrammar(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		names = append(names, m.name)
		if m.unit == "" || len(m.unit) > 16 || !regexpUnit(m.unit) {
			t.Errorf("metric %s: bad unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better is %q", m.name, m.better)
		}
	}
	for _, n := range names {
		if !nameGrammar.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameGrammar)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if nameGrammar.MatchString(bad) {
			t.Errorf("grammar accepts %q", bad)
		}
	}
}

func regexpUnit(u string) bool {
	for _, r := range u {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune("_/%.-", r)) {
			return false
		}
	}
	return true
}

// The benchmark definition and the metric tables the command reports
// from must agree name for name.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, command %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(b.EndToEnd), len(endToEnd))
	}
	bounds := map[string]float64{}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, command %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		bounds[m.Name] = m.Bound
	}
	for name, bd := range bounds {
		if bd > bounds["setup_s"] {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", name, bd, bounds["setup_s"])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, command %+v", i, m, d)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v", b.Paths)
	}
}

func TestReportRejectsMissingAndExtraMetrics(t *testing.T) {
	defs := []metric{{name: "a", unit: "s"}, {name: "b", unit: "s"}}
	if _, err := report(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("a NaN metric was accepted")
	}
	got, err := report(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || got["b"] != (value{Value: 2, Unit: "s"}) {
		t.Errorf("report = %v, %v", got, err)
	}
}

func TestSelfTimeOfNestedAndSequentialSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 30 * ms},  // sequential children
		{ID: 2, Parent: 0, Name: "a", Start: 40 * ms, End: 70 * ms},  // of root
		{ID: 3, Parent: 2, Name: "b", Start: 45 * ms, End: 55 * ms},  // nested in the second a
		{ID: 4, Parent: 3, Name: "c", Start: 46 * ms, End: 50 * ms},  // nested two deep
		{ID: 5, Parent: 2, Name: "b", Start: 50 * ms, End: 60 * ms},  // overlaps its sibling
		{ID: 6, Parent: -1, Name: "other", Start: 0, End: 5 * ms},    // a second root
		{ID: 7, Parent: 6, Name: "late", Start: 3 * ms, End: 9 * ms}, // runs past its parent
	}
	want := []time.Duration{50 * ms, 20 * ms, 15 * ms, 6 * ms, 4 * ms, 10 * ms, 3 * ms, 6 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	byName := map[string]nameTotal{}
	for _, n := range selfByName(spans) {
		byName[n.Name] = n
	}
	if a := byName["a"]; a.N != 2 || a.Total != 50*ms || a.Self != 35*ms {
		t.Errorf("a: %+v", a)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer("test")
	tr.do("outer", func() {
		tr.do("inner", func() {})
		tr.do("inner", func() {})
	})
	tr.do("next", func() {})
	parents := []int{-1, 0, 0, -1}
	if len(tr.spans) != len(parents) {
		t.Fatalf("%d spans, want %d", len(tr.spans), len(parents))
	}
	for i, p := range parents {
		if tr.spans[i].Parent != p || tr.spans[i].Run != "test" || tr.spans[i].End < tr.spans[i].Start {
			t.Errorf("span %d: %+v", i, tr.spans[i])
		}
	}
	if n := len(tr.durations("inner")); n != 2 {
		t.Errorf("%d inner durations", n)
	}
}

// The spread rule must match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 5.5, 2.2, 9.9}, 1.7, 7.7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// quickFig4 runs fig4 at quick size through the harness directly, so a
// test can alter a point before rendering its CSV.
func quickFig4(t *testing.T, seed uint64) *harness.Series {
	t.Helper()
	s := harness.ByID("fig4").Run(harness.Options{Quick: true, Seed: seed})
	if len(s.Points) == 0 || len(s.Failed) > 0 {
		t.Fatalf("fig4 quick: %d points, failed %v", len(s.Points), s.Failed)
	}
	return s
}

func expOf(s *harness.Series) []expResult {
	return []expResult{{ID: s.ID, Digest: digest(s.Title, harness.CSV(s), s.Notes), Points: len(s.Points)}}
}

// Changing one value of one point must trip the output check, against
// the reference and against the run's first sweep alike.
func TestOneChangedValueTripsTheCheck(t *testing.T) {
	s := quickFig4(t, 1)
	good := expOf(s)
	s.Points[2].SysMicros = math.Nextafter(s.Points[2].SysMicros, math.Inf(1))
	bad := expOf(s)

	c := newChecker(map[string]string{"fig4": good[0].Digest})
	c.add("rep 1", good)
	if !c.ok() || c.okFrac() != 1 {
		t.Fatalf("the unchanged output failed the check: %v", c.problems)
	}
	c.add("rep 2", bad)
	if c.ok() || c.failed != len(s.Points) || len(c.problems) != 1 {
		t.Errorf("against the reference: ok=%t failed=%d problems=%v", c.ok(), c.failed, c.problems)
	}

	warm := newChecker(nil) // a seed with no recorded reference
	warm.add("cold prime", good)
	warm.add("rep 1", bad)
	if warm.ok() || !strings.Contains(warm.problems[0], "cold prime") {
		t.Errorf("warm against cold: ok=%t problems=%v", warm.ok(), warm.problems)
	}

	failed := newChecker(nil)
	failed.add("rep 1", []expResult{{ID: "fig4", Digest: good[0].Digest, Points: 5, Failed: []string{"PK@48: wedged"}}})
	if failed.ok() || failed.attempted != 6 || failed.failed != 1 {
		t.Errorf("a failed point: attempted %d failed %d", failed.attempted, failed.failed)
	}
}

// ablate and fig12 report their figures only in notes, so changing one
// note line must trip the check as a changed point value does.
func TestOneChangedNoteTripsTheCheck(t *testing.T) {
	for _, id := range []string{"ablate", "fig12"} {
		s := harness.ByID(id).Run(harness.Options{Quick: true, Seed: 1})
		if len(s.Notes) == 0 || len(s.Failed) > 0 {
			t.Fatalf("%s: %d notes, failed %v", id, len(s.Notes), s.Failed)
		}
		good := expOf(s)
		s.Notes[len(s.Notes)/2] += " "
		bad := expOf(s)
		c := newChecker(map[string]string{id: good[0].Digest})
		c.add("rep 1", good)
		if !c.ok() || c.attempted != max(len(s.Points), 1) {
			t.Fatalf("%s: the unchanged output failed the check: attempted %d, %v", id, c.attempted, c.problems)
		}
		c.add("rep 2", bad)
		if c.ok() || len(c.problems) != 1 {
			t.Errorf("%s: a changed note: ok=%t problems=%v", id, c.ok(), c.problems)
		}
	}
}

// Under a recorded seed, an experiment the reference lacks and a
// reference entry no experiment produced both fail the check.
func TestReferenceAndSweepMustCoverTheSameExperiments(t *testing.T) {
	c := newChecker(map[string]string{"fig4": "a", "fig5": "b"})
	c.add("rep 1", []expResult{{ID: "fig4", Digest: "a", Points: 3}, {ID: "new", Digest: "c", Points: 2}})
	if c.ok() || c.failed != 3 || c.attempted != 6 || len(c.problems) != 2 {
		t.Errorf("failed %d attempted %d problems %v", c.failed, c.attempted, c.problems)
	}
	for i, want := range []string{"new has no reference", "reference has fig5"} {
		if !strings.Contains(c.problems[i], want) {
			t.Errorf("problem %d = %q, want it to mention %q", i, c.problems[i], want)
		}
	}
	if got := (referenceFile{}).digests(workloads[0], 1); got != nil {
		t.Errorf("an unrecorded seed has digests %v", got)
	}
}

func TestReplayMatchesTheHarnessAndCatchesADifference(t *testing.T) {
	s, err := mosbench.Run("fig4", mosbench.Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rp := replayExim(newTracer("test"), 3, true)
	if m := compareReplay(s, rp.points); len(m) != 0 {
		t.Fatalf("replay differs from the harness: %v", m)
	}
	rp.points[1].PerCore++
	if m := compareReplay(s, rp.points); len(m) != 1 {
		t.Errorf("one changed replay point gave %d mismatches: %v", len(m), m)
	}
	c := newChecker(nil)
	c.add("traced rep", []expResult{{ID: "fig4", Digest: "x", Points: len(s.Point)}})
	c.addReplay("traced rep", compareReplay(s, rp.points))
	if c.ok() || c.failed != 1 {
		t.Errorf("replay mismatch: failed %d", c.failed)
	}
}

// The seed argument must reach mosbench.Options.Seed, and so the output.
func TestSeedReachesOptions(t *testing.T) {
	for _, w := range workloads {
		if got := w.options(7).Seed; got != 7 {
			t.Errorf("%s: Options.Seed = %d for seed 7", w.name, got)
		}
	}
	w, err := lookupWorkload("exim-cold")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) string {
		o := w.options(seed)
		o.Cores = []int{1, 2} // the first points of the grid keep the test short
		exps, _, err := sweep(w, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		return exps[0].Digest
	}
	direct, err := mosbench.Run("fig4", mosbench.Options{Seed: 2, Serial: true, Cores: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := digest(direct.Title, direct.CSV(), direct.Notes)
	if a, b := run(2), run(3); a == b || a != want {
		t.Errorf("seed 2 digest %s, seed 3 %s, direct seed 2 %s", a, b, want)
	}
}

// A warm repetition must replay every cached point: if the prime left
// misses, all-quick-warm would measure simulation instead of replay.
func TestWarmPrimeLeavesNoMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick sweep twice")
	}
	dir := t.TempDir()
	cold, err := lookupWorkload("all-quick-cold")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := lookupWorkload("all-quick-warm")
	if err != nil {
		t.Fatal(err)
	}
	sweepWith := func(w workload) ([]expResult, mosbench.CacheStats) {
		c, err := mosbench.OpenCacheLogged(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := w.options(5)
		o.Cache = c
		exps, _, err := sweep(w, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Save(); err != nil {
			t.Fatal(err)
		}
		return exps, c.Stats()
	}
	primed, st := sweepWith(cold)
	if st.Misses == 0 {
		t.Fatal("the cold prime made no cache misses")
	}
	replayed, st := sweepWith(warm)
	if st.Misses != 0 || st.Hits == 0 {
		t.Errorf("warm sweep after the prime: %d hits, %d misses", st.Hits, st.Misses)
	}
	c := newChecker(nil)
	c.add("cold prime", primed)
	c.add("warm", replayed)
	if !c.ok() {
		t.Errorf("warm output differs from cold: %v", c.problems)
	}
}

func TestProfileSharesOfARealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("the profiler took no samples")
	}
	var sum float64
	for _, m := range profileModules {
		sum += shares[m]
	}
	if math.Abs(sum-1) > 1e-9 || shares["other"] == 0 {
		t.Errorf("shares %v sum to %v (%d samples, x=%v)", shares, sum, samples, x)
	}
	if _, _, err := profileShares(filepath.Join(t.TempDir(), "missing.pprof")); err == nil {
		t.Error("a missing profile was read")
	}
}

func TestParseTop(t *testing.T) {
	out := `File: perfbench
Type: samples
Showing nodes accounting for 10, 100% of 10 total
      flat  flat%   sum%        cum   cum%
         6 60.00% 60.00%          7 70.00%  repro/internal/sim.(*Proc).yieldTo
         3 30.00% 90.00%          3 30.00%  runtime.memmove (inline)
         1 10.00%   100%          1 10.00%  repro/internal/mem.(*Model).write
         0     0%   100%         10   100%  main.sweep
`
	shares, samples, err := parseTop([]byte(out))
	if err != nil || samples != 10 || shares["sim"] != 0.6 || shares["runtime"] != 0.3 || shares["mem"] != 0.1 || shares["other"] != 0 {
		t.Errorf("parseTop = %v, %d, %v", shares, samples, err)
	}
	for _, bad := range []string{"no table here\n", "      flat  flat%   sum%        cum   cum%\n  x 1% 1% 1 1% f\n"} {
		if _, _, err := parseTop([]byte(bad)); err == nil {
			t.Errorf("parseTop accepted %q", bad)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Proc).yieldTo":           "sim",
		"repro/internal/mem.(*Model).write":            "mem",
		"repro/internal/slock.(*SpinLock).Acquire":     "slock",
		"repro/internal/harness.Options.runGrid.func1": "harness",
		"repro/mosbench.Run":                           "harness",
		"repro/internal/xrand.(*Rand).Uint64":          "other",
		"runtime.chansend":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKey":      "runtime",
		"sync.(*Mutex).Lock":                           "other",
		"main.sweep":                                   "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	if s, err := parseSeeds("3-5"); err != nil || len(s) != 3 || s[0] != 3 || s[2] != 5 {
		t.Errorf("3-5: %v %v", s, err)
	}
	if s, err := parseSeeds("1,9"); err != nil || len(s) != 2 || s[1] != 9 {
		t.Errorf("1,9: %v %v", s, err)
	}
	for _, bad := range []string{"5-3", "x", "1,,2"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

package harness

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// testCell is an ad hoc cell for harness tests: a "test" workload whose
// spec is unique per (name, cores), measured by run.
func testCell(o Options, name string, cores int, run func(co Options, sp *spec) Point) cell {
	return o.newCell(spec{workload: "test", opts: name, cores: cores, domains: kernelDomains}, run)
}

// isoRuns is a trivial one-variant grid whose points are pure functions of
// the core count, so surviving points are easy to check.
func isoRuns(o Options) []variantRun {
	return []variantRun{{"V", func(c int) cell {
		return testCell(o, "iso", c, func(Options, *spec) Point { return Point{Cores: c, PerCore: float64(c)} })
	}}}
}

// procPanicRuns is a one-variant grid whose points simulate on the
// worker's arena engine: one proc per core, each advancing by a
// PRNG-drawn amount. When panics(cores, co) holds, the core-0 proc's body
// panics mid-run while the other procs are parked in the engine
// (co.freshEngines marks the retry attempt).
func procPanicRuns(o Options, panics func(cores int, co Options) bool) []variantRun {
	return []variantRun{{"V", func(c int) cell {
		return testCell(o, "proc-panic", c, func(co Options, sp *spec) Point {
			e, _ := co.engine(sp)
			var end int64
			for i := 0; i < c; i++ {
				e.Spawn(i, "worker", int64(i), func(p *sim.Proc) {
					p.Advance(100)
					if i == 0 && panics(c, co) {
						panic("injected proc-body panic")
					}
					p.Advance(int64(10 + e.Rand.Intn(50)))
					end = max(end, p.Now())
				})
			}
			e.Run()
			return Point{Cores: c, PerCore: float64(end)}
		})
	}}}
}

// TestProcBodyPanicBecomesFailedPoint is crash isolation for a panic
// raised inside a simulated proc's body rather than in the point function
// itself: the panic must reach the point's guard instead of killing the
// process, a transient one is retried, a persistent one costs exactly its
// point, and the serial sweep's pooled engine (reset after holding the
// panicked proc) must keep producing the points a clean sweep produces.
func TestProcBodyPanicBecomesFailedPoint(t *testing.T) {
	o := Options{Cores: []int{1, 8, 16, 48}, Seed: 1, Serial: true}
	clean := &Series{ID: "iso-test"}
	o.sweepPoints(clean, grid(o.cores(), procPanicRuns(o, func(int, Options) bool { return false })))
	if len(clean.Points) != 4 || len(clean.Failed) != 0 {
		t.Fatalf("clean sweep: %d points, %d failures; want 4 and 0", len(clean.Points), len(clean.Failed))
	}

	s := &Series{ID: "iso-test"}
	o.sweepPoints(s, grid(o.cores(), procPanicRuns(o, func(c int, co Options) bool {
		return c == 16 || (c == 8 && !co.freshEngines)
	})))
	if len(s.Failed) != 1 {
		t.Fatalf("failed points = %+v, want exactly one", s.Failed)
	}
	if f := s.Failed[0]; f.Cores != 16 || !strings.Contains(f.Err, "injected proc-body panic") || !strings.Contains(f.Err, "retry") {
		t.Errorf("failure %+v should be V@16 carrying the panic value and noting the retry", f)
	}
	want := []Point{clean.Points[0], clean.Points[1], clean.Points[3]}
	if len(s.Points) != len(want) {
		t.Fatalf("surviving points = %+v, want cores 1, 8 (retried) and 48", s.Points)
	}
	for i := range want {
		if !reflect.DeepEqual(s.Points[i], want[i]) {
			t.Errorf("point %d = %+v, want the clean sweep's %+v", i, s.Points[i], want[i])
		}
	}
}

func TestPointPanicIsRetriedOnFreshEngine(t *testing.T) {
	defer func() { testPointHook = nil }()
	var mu sync.Mutex
	attempts := map[int]int{}
	testPointHook = func(exp, variant string, cores, attempt int) {
		mu.Lock()
		attempts[attempt]++
		mu.Unlock()
		if cores == 8 && attempt == 0 {
			panic("injected transient panic")
		}
	}
	o := Options{Cores: []int{1, 8}, Seed: 1}
	s := &Series{ID: "iso-test"}
	o.sweepPoints(s, grid(o.cores(), isoRuns(o)))
	if len(s.Failed) != 0 {
		t.Fatalf("transient panic left failed points: %+v", s.Failed)
	}
	if len(s.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(s.Points))
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts[1] != 1 {
		t.Errorf("retry attempts = %d, want exactly 1", attempts[1])
	}
}

func TestPersistentPanicFailsExactlyOnePoint(t *testing.T) {
	defer func() { testPointHook = nil }()
	testPointHook = func(exp, variant string, cores, attempt int) {
		if cores == 8 {
			panic("injected persistent panic")
		}
	}
	o := Options{Cores: []int{1, 8, 48}, Seed: 1}
	s := &Series{ID: "iso-test"}
	o.sweepPoints(s, grid(o.cores(), isoRuns(o)))
	if len(s.Failed) != 1 {
		t.Fatalf("failed points = %+v, want exactly one", s.Failed)
	}
	f := s.Failed[0]
	if f.Variant != "V" || f.Cores != 8 {
		t.Errorf("failed point identifies %s@%d, want V@8", f.Variant, f.Cores)
	}
	if !strings.Contains(f.Err, "injected persistent panic") || !strings.Contains(f.Err, "retry") {
		t.Errorf("failure %q should carry the panic value and note the retry", f.Err)
	}
	// Every other point survived, in grid order.
	if len(s.Points) != 2 || s.Points[0].Cores != 1 || s.Points[1].Cores != 48 {
		t.Fatalf("surviving points = %+v, want cores 1 and 48", s.Points)
	}
	// The failure is visible in the rendered table.
	if out := Format(s); !strings.Contains(out, "failed points (1)") {
		t.Errorf("Format does not surface the failure:\n%s", out)
	}
}

// TestAbandonedPointStaysOutOfCache is the regression guard for the late
// cache store: a point the watchdog abandoned may unwedge and finish long
// after its sweep moved on, and its result must not reach the shared
// cache — the point was already reported failed, and a rerun must
// re-simulate it rather than replay a value nobody validated.
func TestAbandonedPointStaysOutOfCache(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	var simsAt8 atomic.Int64
	release := make(chan struct{})
	o := Options{Cores: []int{1, 8}, Seed: 1, PointTimeout: 100 * time.Millisecond, Cache: c}
	runs := []variantRun{{"V", func(cores int) cell {
		return testCell(o, "wedge", cores, func(Options, *spec) Point {
			if cores == 8 {
				simsAt8.Add(1)
				<-release // wedge until the test unblocks us (closed after run 1)
			}
			return Point{Cores: cores, PerCore: float64(cores)}
		})
	}}}
	s := &Series{ID: "iso-test"}
	o.sweepPoints(s, grid(o.cores(), runs))
	if len(s.Failed) != 1 || !strings.Contains(s.Failed[0].Err, "timed out") {
		t.Fatalf("failed points = %+v, want the wedged point timed out", s.Failed)
	}
	// Unwedge the abandoned child and give it ample time to finish — and,
	// pre-fix, to land its late store.
	close(release)
	time.Sleep(500 * time.Millisecond)
	if got := c.Len(); got != 1 {
		t.Fatalf("cache holds %d points after the abandoned point finished, want only cores=1", got)
	}
	// A rerun must re-simulate the abandoned point, not replay it.
	s2 := &Series{ID: "iso-test"}
	o.sweepPoints(s2, grid(o.cores(), runs))
	if got := simsAt8.Load(); got != 2 {
		t.Errorf("cores=8 simulated %d times across both runs, want 2 (the rerun must not be served from cache)", got)
	}
	if len(s2.Points) != 2 || len(s2.Failed) != 0 {
		t.Errorf("rerun produced %d points, %d failures; want 2 and 0", len(s2.Points), len(s2.Failed))
	}
}

func TestWedgedPointHitsWatchdogWithoutRetry(t *testing.T) {
	defer func() { testPointHook = nil }()
	var wedgeAttempts atomic.Int64
	testPointHook = func(exp, variant string, cores, attempt int) {
		if cores == 8 {
			wedgeAttempts.Add(1)
			time.Sleep(1500 * time.Millisecond) // past the watchdog
		}
	}
	o := Options{Cores: []int{1, 8}, Seed: 1, PointTimeout: 100 * time.Millisecond}
	s := &Series{ID: "iso-test"}
	start := time.Now()
	o.sweepPoints(s, grid(o.cores(), isoRuns(o)))
	if len(s.Failed) != 1 || !strings.Contains(s.Failed[0].Err, "timed out") {
		t.Fatalf("failed points = %+v, want one timeout", s.Failed)
	}
	if len(s.Points) != 1 || s.Points[0].Cores != 1 {
		t.Fatalf("surviving points = %+v, want just cores=1", s.Points)
	}
	if got := wedgeAttempts.Load(); got != 1 {
		t.Errorf("wedged point ran %d times, want 1 (timeouts are not retried)", got)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("sweep took %s; the watchdog should cut the wedge off quickly", took)
	}
	// Let the leaked sleeper drain before the next test reuses the hook.
	time.Sleep(1600 * time.Millisecond)
}

// TestSweepShapesIsolateCrashes panics one chosen point on both attempts
// in an experiment of each shape that once had its own fan-out or loop:
// a pair of derived-note measurements (dma), notes-only ablation rows
// (ablate), a fixed-cores parameter sweep (spool-dirs), per-row 1-vs-max
// retention (fig12), a severity axis (degrade), and the probes whose
// notes render from their cells' metrics (tbl-hw, fig2, profile,
// sloppy-threshold). Each must report exactly that point as failed, keep
// every other point, and mark the failed point's derived note skipped.
func TestSweepShapesIsolateCrashes(t *testing.T) {
	defer func() { testPointHook = nil }()
	for _, tc := range []struct {
		exp, variant string
		cores        int
		points       int    // points that must survive
		note         string // prefix of the failed point's derived note; "" when it has none
	}{
		{"dma", "local pools", 48, 1, "local-node allocation"},
		{"ablate", "dst-ref/fix", 48, 0, "dst-ref "},
		{"spool-dirs", "dirs=4", 48, 6, ""},
		{"fig12", "Exim", 48, 0, "Exim "},
		{"degrade", "PK", 50, 5, "  PK     @ 50%"},
		{"tbl-hw", "latencies", 48, 0, "memory latencies"},
		{"fig2", "trace", 2, 0, "sloppy counter trace"},
		{"profile", "memcached", 48, 0, "skipped: "},
		{"sloppy-threshold", "threshold=4", 48, 5, "threshold 4  :"},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			testPointHook = func(exp, variant string, cores, attempt int) {
				if exp == tc.exp && variant == tc.variant && cores == tc.cores {
					panic("injected persistent panic")
				}
			}
			s := ByID(tc.exp).Run(quickOpts())
			if len(s.Failed) != 1 {
				t.Fatalf("failed points = %+v, want exactly %s@%d", s.Failed, tc.variant, tc.cores)
			}
			if f := s.Failed[0]; f.Variant != tc.variant || f.Cores != tc.cores ||
				!strings.Contains(f.Err, "injected persistent panic") || !strings.Contains(f.Err, "retry") {
				t.Errorf("failure %+v should be %s@%d carrying the panic value and noting the retry", f, tc.variant, tc.cores)
			}
			if len(s.Points) != tc.points {
				t.Errorf("%d points survived, want %d: %+v", len(s.Points), tc.points, s.Points)
			}
			if _, ok := s.Get(tc.variant, tc.cores); ok {
				t.Errorf("the failed point %s@%d is listed among the points", tc.variant, tc.cores)
			}
			skipped := 0
			for _, n := range s.Notes {
				if !strings.Contains(n, "skipped") {
					continue
				}
				skipped++
				if tc.note == "" || !strings.HasPrefix(n, tc.note) {
					t.Errorf("note %q reads skipped; only the failed point's derived note should", n)
				}
			}
			want := 0
			if tc.note != "" {
				want = 1
			}
			if skipped != want {
				t.Errorf("%d notes read skipped, want %d:\n%s", skipped, want, strings.Join(s.Notes, "\n"))
			}
		})
	}
}

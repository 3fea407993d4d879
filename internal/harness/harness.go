// Package harness defines the experiments that regenerate every table and
// figure in the paper's evaluation section, and formats their results as
// the same rows/series the paper reports.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/load"
	"repro/internal/mem"
	"repro/internal/topo"
)

// Point is one measurement: an application variant at one core count.
type Point struct {
	// Cores is the active core count.
	Cores int
	// Variant is the curve label (e.g. "Stock", "PK", "Stock + Procs RR").
	Variant string
	// PerCore is throughput per core in the figure's units.
	PerCore float64
	// UserMicros and SysMicros are CPU microseconds per operation.
	UserMicros, SysMicros float64
	// DRAMUtil is each chip's memory-controller busy fraction during the
	// run (nil for workloads that do no bulk streaming).
	DRAMUtil []float64
	// LinkUtil is each HyperTransport link's busy fraction during the
	// run (nil for workloads that do no bulk streaming).
	LinkUtil []float64
	// Retries is client-visible network retransmissions per operation —
	// zero except under injected packet loss (Options.Fault) or open-loop
	// overload (client timeouts and link loss).
	Retries float64
	// Dups is discarded duplicate deliveries per operation — injected NIC
	// dups plus, open-loop, client retransmissions of queued requests.
	Dups float64
	// OfferedPerCore is the open-loop offered arrival rate per core in
	// the figure's units (0 for closed-loop points). PerCore is then
	// goodput: dividing the two gives the delivered fraction.
	OfferedPerCore float64
	// P50Micros, P99Micros, and P999Micros are client-perceived latency
	// quantiles in microseconds (0 for closed-loop points). The tail
	// diverging from P50 while PerCore still tracks OfferedPerCore is the
	// open-loop experiments' headline signal.
	P50Micros, P99Micros, P999Micros float64
	// Metrics are the cell's named measurements beyond the fixed columns,
	// in recorded order. Format and CSV skip them; the experiment that
	// records them renders its Notes from them.
	Metrics []Metric `json:",omitempty"`
}

// Metric is one named number a cell measured. Names read
// "<kind>:<object>/<quantity>", e.g. "lock:vfsmount_lock/wait_cy".
type Metric struct {
	Name  string
	Value float64
}

// Metric returns the value of p's named metric (0 when absent).
func (p Point) Metric(name string) float64 {
	for _, m := range p.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// Series is the result of one experiment: one or more variant curves.
type Series struct {
	// ID is the experiment identifier (fig4, tbl-hw, ...).
	ID string
	// Title is a human-readable name.
	Title string
	// Unit is the per-core throughput unit (the figure's y-axis).
	Unit string
	// Points holds all measurements.
	Points []Point
	// Failed lists the sweep points that produced no measurement (panic
	// after retry, or watchdog timeout); see safeCachedPoint. A run with
	// failed points still reports every other point.
	Failed []FailedPoint
	// Notes are free-form lines (tables, attributions, caveats).
	Notes []string
}

// Variants returns the distinct variant labels in first-seen order.
func (s *Series) Variants() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range s.Points {
		if !seen[p.Variant] {
			seen[p.Variant] = true
			out = append(out, p.Variant)
		}
	}
	return out
}

// Get returns the point for (variant, cores) and whether it exists.
func (s *Series) Get(variant string, cores int) (Point, bool) {
	for _, p := range s.Points {
		if p.Variant == variant && p.Cores == cores {
			return p, true
		}
	}
	return Point{}, false
}

// Options controls an experiment run.
type Options struct {
	// Machine is the simulated host every kernel this run boots: its chip
	// count, per-chip cores, latencies, rates, and link graph. Nil means
	// the default machine (the paper's 48-core Tyan S4985). Non-default
	// machines get their own sweep-point cache sections (see
	// cacheSectionID), so results for different hosts never alias.
	Machine *topo.Machine
	// Cores is the sweep; nil uses the experiment's default, scaled to the
	// machine.
	Cores []int //mosvet:allow cachekeylint selects which points run; each point is keyed by its own core count (cacheKey's cores argument)
	// Seed is the deterministic PRNG seed.
	Seed uint64
	// Quick shrinks op budgets and the sweep for fast smoke runs.
	Quick bool
	// Serial runs sweep points one at a time on the calling goroutine. By
	// default the independent points of a sweep (each owns its own Engine,
	// Model, and PRNG) execute concurrently across GOMAXPROCS workers;
	// results are assembled by index, so both modes produce identical
	// Series.
	Serial bool //mosvet:allow cachekeylint execution strategy only: serial and parallel sweeps produce identical Series, assembled by index
	// Placement selects the bulk-data placement policy for the workloads
	// that stream through the memory system (Metis, pedsort, gmake,
	// PostgreSQL). The zero value is local placement, the pre-option
	// behavior.
	Placement mem.Placement
	// Cache, when non-nil, memoizes sweep points by (experiment, variant,
	// cores, seed, quick, placement, fault, arrival, link, shed): hits
	// skip simulation entirely, and misses are stored so a repeated grid
	// run is served from the cache.
	Cache *Cache //mosvet:allow cachekeylint the cache handle itself; whether points are memoized cannot change what they compute
	// Fault, when non-nil and non-empty, is the deterministic fault plan
	// injected into every kernel the experiment boots: degraded or dead HT
	// links, throttled memory controllers, offlined cores, NIC packet
	// loss/duplication. The spec's canonical string is part of the sweep
	// cache key, so faulted points never alias clean ones.
	Fault *fault.Spec
	// PointTimeout is the per-sweep-point wall-clock watchdog; a point
	// that runs past it is abandoned and reported in Series.Failed. Zero
	// means the default (2 minutes).
	PointTimeout time.Duration //mosvet:allow cachekeylint wall-clock watchdog: it can abandon a point (reported failed, kept out of the cache), never change its value
	// Shards and ShardIndex split the sweep's point grid across
	// cooperating processes (see shard.go): with Shards > 1, this run
	// computes only the points whose identity hashes to ShardIndex and
	// silently skips the rest. Shard runs should share a Cache directory;
	// a follow-up run with Shards unset then merges every shard's points
	// into a complete Series. Validate combinations with ValidateShards.
	Shards, ShardIndex int //mosvet:allow cachekeylint sharding selects which points this process computes; the merged grid is byte-identical to the single-process run
	// Arrival, Link, and Shed configure the open-loop experiments
	// (latload): the arrival process, the client-side link shaper, and
	// the server's admission policy. Nil means each experiment's default
	// (poisson arrivals, ideal link, per-variant shedding). Their
	// canonical strings are part of the sweep cache key, so open-loop
	// points never alias closed-loop ones. Closed-loop experiments
	// ignore them.
	Arrival *load.ArrivalSpec
	Link    *load.LinkSpec
	Shed    *load.ShedSpec

	// abandoned is set by runGuarded's watchdog when it gives up on this
	// point; the flag tells a later-unwedged point body that its result
	// must not reach the shared cache. Nil outside runGuarded.
	abandoned *atomic.Bool //mosvet:allow cachekeylint runtime bookkeeping set per attempt; never an input to the simulation
	// freshEngines bypasses the engine arena: every sweep point builds a
	// brand-new sim.Engine instead of resetting a pooled one. Outside
	// tests only safeCachedPoint's retry sets it, to rule the arena out as
	// a crash's cause; results are bit-for-bit identical either way.
	freshEngines bool //mosvet:allow cachekeylint fresh and reused engines are bit-for-bit identical, pinned by TestEngineReuseDeterminism
	// slot is the calling sweep worker's pooled engine, set by sweep; nil
	// only under freshEngines, where newEngine builds a fresh engine.
	slot *engineSlot //mosvet:allow cachekeylint engine pooling handle; reuse is bit-for-bit identical to fresh engines
	// slotGen pins the slot generation this Options was issued under; a
	// stale generation (the watchdog abandoned the slot) makes newEngine
	// fall back to a throwaway engine. See engineSlot.
	slotGen uint64 //mosvet:allow cachekeylint slot-generation guard for the watchdog; selects an engine, never changes results
}

// DefaultCores is the standard sweep on the default machine, a subset of
// the paper's x-axis.
var DefaultCores = []int{1, 2, 4, 8, 16, 24, 32, 40, 48}

// QuickCores is the abbreviated sweep used by Quick runs on the default
// machine.
var QuickCores = []int{1, 8, 48}

func (o Options) cores() []int {
	if len(o.Cores) > 0 {
		return o.Cores
	}
	return standardCores(o.machine(), o.Quick)
}

// standardCores is a machine's default sweep: DefaultCores or QuickCores
// on the default machine, the same shapes scaled to any other.
func standardCores(m *topo.Machine, quick bool) []int {
	if m.IsDefault() {
		if quick {
			return QuickCores
		}
		return DefaultCores
	}
	if quick {
		return quickCoresFor(m.MaxCores())
	}
	return defaultCoresFor(m.MaxCores())
}

// defaultCoresFor builds a machine's standard sweep: the small powers of
// two, then six evenly spaced steps up to the full machine — the shape of
// DefaultCores generalized (it reproduces [1 2 4 8 16 24 32 40 48] for a
// 48-core machine).
func defaultCoresFor(max int) []int {
	step := max / 6
	if step < 1 {
		step = 1
	}
	seen := map[int]bool{}
	var out []int
	add := func(c int) {
		if c >= 1 && c <= max && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, c := range []int{1, 2, 4, 8} {
		add(c)
	}
	for k := 1; k <= 6; k++ {
		add(k * step)
	}
	add(max)
	sort.Ints(out)
	return out
}

// quickCoresFor is the abbreviated three-point sweep for a machine:
// one core, an intermediate count, and the full machine.
func quickCoresFor(max int) []int {
	mid := max / 6
	if mid < 2 {
		mid = (max + 1) / 2
	}
	seen := map[int]bool{}
	var out []int
	for _, c := range []int{1, mid, max} {
		if c >= 1 && c <= max && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// machine returns the run's simulated host (the default when unset).
func (o Options) machine() *topo.Machine {
	if o.Machine != nil {
		return o.Machine
	}
	return topo.Default()
}

// topo returns the run's machine with n cores enabled (sequential fill).
func (o Options) topo(n int) *topo.Machine { return o.machine().WithCores(n) }

// topoRR returns the run's machine with n cores enabled, round-robin.
func (o Options) topoRR(n int) *topo.Machine { return o.machine().WithCoresRR(n) }

// maxCores is the run's full-machine core count (48 on the default).
func (o Options) maxCores() int { return o.machine().MaxCores() }

// secsFor converts engine cycles to seconds at m's clock.
func secsFor(m *topo.Machine, cycles int64) float64 {
	return float64(cycles) / m.CyclesPerSec()
}

// microsFor converts engine cycles to microseconds at m's clock.
func microsFor(m *topo.Machine, cycles int64) float64 {
	return float64(cycles) * 1e6 / m.CyclesPerSec()
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// cell is one sweep point: run measures it, and (variant, cores)
// identifies it. The pair keys the sweep-point cache, decides which shard
// owns the point, and names it in Series.Failed, so it must be unique
// within the experiment. cores is the point's x-axis value; an experiment
// whose axis is not a core count (degrade's severity percent, latload's
// offered-load percent) puts that value here, and run pins the simulated
// core count itself.
type cell struct {
	variant string
	cores   int
	run     func(o Options) Point
}

// variantRun is one labeled curve of a grid experiment, run at each value
// of the grid's axis.
type variantRun struct {
	name string
	run  func(cores int, o Options) Point
}

// grid builds the variants × axis cell list, grouped by variant with the
// axis in the given order — the order nested serial loops would produce.
func grid(axis []int, runs []variantRun) []cell {
	cells := make([]cell, 0, len(runs)*len(axis))
	for _, vr := range runs {
		for _, c := range axis {
			cells = append(cells, cell{vr.name, c, func(o Options) Point { return vr.run(c, o) }})
		}
	}
	return cells
}

// sweep is the harness's one way to compute Points. Every cell runs
// through safeCachedPoint, so each is served from o.Cache when possible,
// skipped when another shard owns it, and crash-isolated: a cell that
// panics twice or wedges past the watchdog lands in s.Failed instead of
// killing the sweep. Unless o.Serial, the cells run concurrently across
// GOMAXPROCS workers, each holding one pooled engine slot from the arena
// (unless o.freshEngines), so a whole grid reuses at most GOMAXPROCS
// engines. Results come back by cell index, which makes them independent
// of execution order; a shard-skipped cell's error is errShardSkipped,
// and it appears in neither the points nor s.Failed.
func (o Options) sweep(s *Series, cells []cell) ([]Point, []error) {
	pts := make([]Point, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	work := func() {
		wo := o
		if !o.freshEngines {
			slot := arena.get()
			defer arena.put(slot)
			wo.slot, wo.slotGen = slot, slot.generation()
		}
		for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
			c := cells[i]
			pts[i], errs[i] = wo.safeCachedPoint(s.ID, c.variant, c.cores, c.run)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(cells))
	if o.Serial || workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() { //mosvet:allow detlint sweep workers parallelize independent points (each owns its engine and PRNG); results are assembled by index
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, errShardSkipped) {
			s.Failed = append(s.Failed, FailedPoint{Variant: cells[i].variant, Cores: cells[i].cores, Err: err.Error()})
		}
	}
	return pts, errs
}

// sweepPoints is sweep for experiments whose Points are the cells' own
// measurements: every computed point is appended to s in cell order.
func (o Options) sweepPoints(s *Series, cells []cell) ([]Point, []error) {
	pts, errs := o.sweep(s, cells)
	for i, p := range pts {
		if errs[i] == nil {
			s.Points = append(s.Points, p)
		}
	}
	return pts, errs
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID matches the DESIGN.md index (fig1..fig12, tbl-hw, ...).
	ID string
	// Title describes the artifact.
	Title string
	// Paper cites what the artifact shows in the paper.
	Paper string
	// Domains lists the cost-model domains this experiment's measurements
	// depend on (see costDomains): "topo", "mem", "kernel", and the
	// "apps/<name>" domain of every workload it runs. The sweep-point
	// cache stores the experiment's points under the combined fingerprint
	// of these domains, so retuning one workload's constants invalidates
	// only the figures that workload appears in. An empty list is the
	// conservative default: every domain, so any retune invalidates.
	Domains []string
	// Run executes the experiment.
	Run func(Options) *Series
}

var registry []Experiment

// register adds an experiment to the registry. Run needs no setup of its
// own: every simulation an experiment runs is a sweep cell, and sweep
// attaches the workers' pooled engines.
func register(e Experiment) {
	checkDomains(e.ID, e.Domains)
	registry = append(registry, e)
}

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}

// Format renders a series as an aligned text table, one row per core
// count, one column group per variant — the shape of the paper's figures.
func Format(s *Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", s.ID, s.Title)
	if len(s.Points) > 0 {
		variants := s.Variants()
		var cores []int
		for _, p := range s.Points {
			cores = append(cores, p.Cores)
		}
		slices.Sort(cores)
		cores = slices.Compact(cores)

		fmt.Fprintf(&b, "%-6s", "cores")
		for _, v := range variants {
			fmt.Fprintf(&b, " | %-28s", v+" ("+s.Unit+", us u/s)")
		}
		b.WriteString("\n")
		for _, c := range cores {
			fmt.Fprintf(&b, "%-6d", c)
			for _, v := range variants {
				if p, ok := s.Get(v, c); ok {
					fmt.Fprintf(&b, " | %10.1f %7.1f %7.1f ", p.PerCore, p.UserMicros, p.SysMicros)
				} else {
					fmt.Fprintf(&b, " | %-28s", "-")
				}
			}
			b.WriteString("\n")
		}
		for _, sec := range pointSections {
			wroteHeader := false
			for _, v := range variants {
				for _, c := range cores {
					p, ok := s.Get(v, c)
					if !ok || !sec.applies(p) {
						continue
					}
					if !wroteHeader {
						b.WriteString(sec.header + "\n")
						wroteHeader = true
					}
					b.WriteString(sec.row(p) + "\n")
				}
			}
		}
	}
	if len(s.Failed) > 0 {
		fmt.Fprintf(&b, "failed points (%d):\n", len(s.Failed))
		for _, f := range s.Failed {
			// First line only: panic errors carry a stack trace.
			msg, _, _ := strings.Cut(f.Err, "\n")
			fmt.Fprintf(&b, "  %-28s %3d: %s\n", f.Variant, f.Cores, msg)
		}
	}
	for _, n := range s.Notes {
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// pointSections are Format's per-point detail sections. Each lists one
// row per point it applies to, variant by variant in core order, under a
// header written only when some row applies.
var pointSections = []struct {
	header  string
	applies func(Point) bool
	row     func(Point) string
}{
	// Per-chip memory-controller utilization, one row per point that
	// streamed bulk data — this is where DRAM saturation localizes.
	{"dram controller utilization (per chip):",
		func(p Point) bool { return len(p.DRAMUtil) > 0 },
		func(p Point) string {
			return fmt.Sprintf("  %-28s %2d cores: %s", p.Variant, p.Cores, joinUtil(p.DRAMUtil, "%.2f", " "))
		}},
	// Tail latency, one row per open-loop point: offered rate, delivered
	// goodput, and the sojourn quantiles. p99 pulling away from p50 while
	// goodput still tracks offered is the overload early warning the mean
	// never shows.
	{"tail latency (offered/core, goodput/core, p50/p99/p999 us):",
		func(p Point) bool { return p.OfferedPerCore != 0 },
		func(p Point) string {
			return fmt.Sprintf("  %-28s %3d: %10.0f %10.0f %8.1f %8.1f %8.1f",
				p.Variant, p.Cores, p.OfferedPerCore, p.PerCore, p.P50Micros, p.P99Micros, p.P999Micros)
		}},
	// Per-link HT utilization: the busiest link pinned near 1.00 while
	// controllers idle is interconnect saturation.
	{"ht link utilization (per link):",
		func(p Point) bool { return len(p.LinkUtil) > 0 },
		func(p Point) string {
			return fmt.Sprintf("  %-28s %2d cores: %s", p.Variant, p.Cores, joinUtil(p.LinkUtil, "%.2f", " "))
		}},
}

// CSV renders a series as CSV with a header row. The dram_util and
// link_util columns hold the per-chip controller and per-link HT
// utilizations joined by ';' (empty for workloads that stream no bulk
// data).
func CSV(s *Series) string {
	var b strings.Builder
	b.WriteString("experiment,variant,cores,per_core,user_us,sys_us,retries,dups,offered_per_core,p50_us,p99_us,p999_us,dram_util,link_util\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%s,%s,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%s,%s\n",
			s.ID, p.Variant, p.Cores, p.PerCore, p.UserMicros, p.SysMicros, p.Retries,
			p.Dups, p.OfferedPerCore, p.P50Micros, p.P99Micros, p.P999Micros,
			joinUtil(p.DRAMUtil, "%.3f", ";"), joinUtil(p.LinkUtil, "%.3f", ";"))
	}
	return b.String()
}

// joinUtil renders a utilization vector, each value in format, joined by
// sep.
func joinUtil(util []float64, format, sep string) string {
	parts := make([]string, len(util))
	for i, u := range util {
		parts[i] = fmt.Sprintf(format, u)
	}
	return strings.Join(parts, sep)
}

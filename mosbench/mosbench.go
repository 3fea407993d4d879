// Package mosbench is the public API of the MOSBENCH reproduction: it runs
// the experiments that regenerate the tables and figures of "An Analysis
// of Linux Scalability to Many Cores" (OSDI 2010) on the simulated 48-core
// machine, and returns their results as plain data.
//
// A minimal use:
//
//	series, err := mosbench.Run("fig4", mosbench.Options{Quick: true})
//	fmt.Print(series.Table())
//
// Experiment IDs follow the paper: fig1..fig12 for its figures, plus
// tbl-hw (the §5.1 latency table), dma (the §5.3 allocation ablation),
// nic-env (the §5.4 card envelope), and ablate (per-fix ablations).
package mosbench

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/load"
	"repro/internal/mem"
	"repro/internal/topo"
)

// Options controls a run.
type Options struct {
	// Cores overrides the core-count sweep (default: 1..48 subset). Each
	// count may appear once; Run rejects duplicates.
	Cores []int
	// Quick shrinks budgets and the sweep for fast runs.
	Quick bool
	// Seed sets the deterministic PRNG seed (0 = default).
	Seed uint64
	// Serial disables the concurrent execution of independent sweep
	// points. Results are identical either way; serial mode exists for
	// debugging and for pinning the harness to one OS thread.
	Serial bool
	// Placement selects the bulk-data placement policy for workloads
	// that stream through the memory system (Metis, pedsort, gmake,
	// PostgreSQL): "local" (default), "striped", "remote", or "home:N".
	Placement string
	// Cache, when non-nil, memoizes sweep points by what they simulate:
	// the workload and its options, the kernel configuration, the machine
	// and its core fill, cores, seed, quick, placement, fault, arrival,
	// link and shed. Experiments that simulate the same thing share one
	// stored point, a repeated grid run is served without simulating, and
	// a retune invalidates only the cells of the retuned cost domain.
	// Open one with OpenCache and Save it when done.
	Cache *Cache
	// Fault is a deterministic fault-injection spec applied to every
	// kernel the experiment boots: comma-separated events like
	// "link:3-4@50%,dram:0@75%,core:7@off,drop:0.01,dup:0.001", each with
	// an optional "@t=<dur>" activation time ("link:0-1@down@t=2ms").
	// Empty or "none" injects nothing. See CheckFault.
	Fault string
	// PointTimeout bounds one sweep point's wall clock; a point that runs
	// past it is abandoned and reported in Series.Failed. Zero means the
	// default (2 minutes).
	PointTimeout time.Duration
	// Arrival selects the open-loop arrival process for load experiments
	// (latload): "poisson[:users=N]" or "pareto[:alpha=A][,users=N]".
	// Empty or "none" keeps the experiment's default. See CheckArrival.
	Arrival string
	// Link shapes the simulated client link for open-loop experiments:
	// comma-separated "rtt=20ms±5", "loss=0.1%", "bw=10mbit" fields.
	// Empty or "none" is an ideal link. See CheckLink.
	Link string
	// Shed selects the open-loop server's admission policy: "fifo"
	// (unbounded queue), "qlen=N" (bounded accept queue), or
	// "delay=100us" (delay-bounded accept queue). Empty keeps the
	// experiment's default. See CheckShed.
	Shed string
	// Machine selects the simulated host by registered profile name
	// ("s4985", "ring16", "mesh4x4", "big192", ...; see Machines). Empty
	// runs the paper's default 48-core Tyan S4985. A non-default machine
	// gets its own cache sections, so switching profiles never invalidates
	// the default machine's warm cache.
	Machine string
	// Shards and ShardIndex split the sweep's point grid across
	// cooperating processes: with Shards > 1, this run computes only the
	// points whose identity hashes to ShardIndex (0-based) and skips the
	// rest — no enumeration-order coordination needed. Shard runs should
	// share a Cache directory; a follow-up run with Shards left at 0 (or
	// 1) then merges every shard's stored points into a complete Series.
	// ShardIndex must be in [0, Shards); Run rejects invalid combinations.
	Shards, ShardIndex int
}

// CheckFault validates a fault-injection spec against the default machine
// without running anything, returning the error a Run with this spec
// would report.
func CheckFault(spec string) error { return CheckFaultFor(spec, "") }

// CheckFaultFor validates a fault-injection spec against the named
// machine profile ("" = default): a link event must name chips joined by
// a link on that machine, a dram event a chip the machine has, and so on.
func CheckFaultFor(spec, machine string) error {
	s, err := fault.Parse(spec)
	if err != nil {
		return err
	}
	m, err := lookupMachine(machine)
	if err != nil {
		return err
	}
	return s.ValidateFor(m)
}

// MachineProfile describes one registered machine profile.
type MachineProfile struct {
	// Name is what Options.Machine (and cmd/mosbench -machine) accepts.
	Name string
	// Chips and Cores are the profile's chip count and total core count.
	Chips, Cores int
	// Default marks the paper's host, used when Options.Machine is empty.
	Default bool
}

// Machines lists the registered machine profiles, sorted by name.
func Machines() []MachineProfile {
	var out []MachineProfile
	for _, name := range topo.Names() {
		m, _ := topo.Lookup(name)
		out = append(out, MachineProfile{
			Name: name, Chips: m.Chips, Cores: m.MaxCores(),
			Default: name == topo.Default().Name,
		})
	}
	return out
}

// lookupMachine resolves a profile name ("" = default) or returns an
// error listing what is registered.
func lookupMachine(name string) (*topo.Machine, error) {
	if name == "" {
		return topo.Default(), nil
	}
	m, ok := topo.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("mosbench: unknown machine %q (registered: %s)",
			name, strings.Join(topo.Names(), ", "))
	}
	return m, nil
}

// CheckPlacement validates a placement policy string ("local", "striped",
// "remote", "home:N") without running anything.
func CheckPlacement(s string) error {
	_, err := mem.ParsePlacement(s)
	return err
}

// CheckArrival validates an open-loop arrival spec without running
// anything.
func CheckArrival(s string) error {
	_, err := load.ParseArrival(s)
	return err
}

// CheckLink validates a link-shaping spec without running anything.
func CheckLink(s string) error {
	_, err := load.ParseLink(s)
	return err
}

// CheckShed validates an admission-control spec without running anything.
func CheckShed(s string) error {
	_, err := load.ParseShed(s)
	return err
}

type (
	// Cache is a handle to an on-disk sweep-point cache shared across
	// runs, experiments and machines. Each point is keyed by what its cell
	// simulates (see Options.Cache) and filed in the section of the
	// cost domains it depends on (an application's constants, the kernel,
	// the memory system, the fault and load models) on its machine; each
	// section is stamped with those domains' cost-model fingerprint, so a
	// retune invalidates exactly the cells that depend on it, in every
	// experiment. A schema hash over the Point type guards against
	// refactors.
	Cache = harness.Cache
	// CacheStats is a snapshot of a cache's activity: totals, each
	// experiment's lookups, and each section's lookups and contents.
	CacheStats = harness.CacheStats
	// ExperimentCacheStats is one experiment's lookups, the points
	// dropped by retunes in the sections its cells live in, and how many
	// of its cells are cached.
	ExperimentCacheStats = harness.ExperimentCacheStats
	// SectionCacheStats is one cost-domain section's activity and
	// contents.
	SectionCacheStats = harness.SectionCacheStats
	// Point is one measurement: an application variant at one core count,
	// with any named metrics the experiment recorded in Point.Metrics.
	Point = harness.Point
	// Metric is one named number in Point.Metrics.
	Metric = harness.Metric
	// FailedPoint identifies one sweep point that produced no
	// measurement: its simulation panicked (twice — points are retried
	// once on a fresh engine) or wedged past the per-point watchdog. The
	// rest of the sweep is unaffected.
	FailedPoint = harness.FailedPoint
	// BenchResult is one machine-readable performance measurement of the
	// simulator itself (engine dispatch, handoff, sweep wall-clock).
	BenchResult = harness.BenchResult
)

// OpenCache opens (creating if needed) the point cache stored in dir.
// One-line warnings — an ignored unparsable or stale-schema cache file,
// orphan temp files removed after an interrupted save — go to stderr; use
// OpenCacheLogged to direct them elsewhere (nil silences them).
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheLogged(dir, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
}

// OpenCacheLogged opens the point cache stored in dir, reporting
// conditions worth knowing about (ignored cache files, removed orphan
// temp files) as one-line messages through logf. A nil logf is silent.
func OpenCacheLogged(dir string, logf func(format string, args ...any)) (*Cache, error) {
	return harness.OpenCacheLogged(dir, logf)
}

// Series is the result of one experiment.
type Series struct {
	ID    string
	Title string
	Unit  string
	Point []Point
	// Failed lists sweep points that crashed or wedged; see FailedPoint.
	Failed []FailedPoint
	Notes  []string

	inner *harness.Series
}

// Table renders the series as an aligned text table.
func (s *Series) Table() string { return harness.Format(s.inner) }

// CSV renders the series as CSV.
func (s *Series) CSV() string { return harness.CSV(s.inner) }

// Get returns the point in s.Point for (variant, cores).
func (s *Series) Get(variant string, cores int) (Point, bool) {
	return (&harness.Series{Points: s.Point}).Get(variant, cores)
}

// WriteBenchJSON runs the simulator's performance microbenchmarks (engine
// dispatch fast path, proc handoff, fresh vs reused spawn/run cycles, and
// quick-sweep wall-clock cold vs warm-cache) and writes them as JSON to
// path — the machine-readable artifact cmd/mosbench -benchjson emits.
func WriteBenchJSON(path string) ([]BenchResult, error) { return harness.WriteBenchJSON(path) }

// CompareBenchJSON compares the bench report at currentPath against the
// committed baseline at baselinePath: every metric present in both whose
// ns/op grew by more than factor is returned as one human-readable
// regression line. An empty slice means no regression. This is the CI
// gate behind cmd/mosbench -benchbaseline.
func CompareBenchJSON(baselinePath, currentPath string, factor float64) ([]string, error) {
	base, err := harness.ReadBenchReport(baselinePath)
	if err != nil {
		return nil, err
	}
	cur, err := harness.ReadBenchReport(currentPath)
	if err != nil {
		return nil, err
	}
	return harness.CompareBenchReports(base, cur, factor), nil
}

// Experiment describes one runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Paper string
}

// Experiments lists everything Run accepts.
func Experiments() []Experiment {
	var out []Experiment
	for _, e := range harness.Experiments() {
		out = append(out, Experiment{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, o Options) (*Series, error) {
	e := harness.ByID(id)
	if e == nil {
		return nil, fmt.Errorf("mosbench: unknown experiment %q (use Experiments())", id)
	}
	pl, err := mem.ParsePlacement(o.Placement)
	if err != nil {
		return nil, err
	}
	m, err := lookupMachine(o.Machine)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	for _, c := range o.Cores {
		if seen[c] {
			return nil, fmt.Errorf("mosbench: core count %d appears twice in Cores %v; each must be unique", c, o.Cores)
		}
		seen[c] = true
	}
	ho := harness.Options{
		Cores: o.Cores, Quick: o.Quick, Seed: o.Seed, Serial: o.Serial,
		Placement: pl, PointTimeout: o.PointTimeout, Cache: o.Cache,
	}
	if o.Machine != "" {
		ho.Machine = m
	}
	if o.Shards != 0 || o.ShardIndex != 0 {
		shards := o.Shards
		if shards == 0 {
			shards = 1 // unset Shards with an explicit index still validates
		}
		if err := harness.ValidateShards(shards, o.ShardIndex); err != nil {
			return nil, fmt.Errorf("mosbench: %w", err)
		}
		ho.Shards, ho.ShardIndex = shards, o.ShardIndex
	}
	if o.Fault != "" {
		spec, err := fault.Parse(o.Fault)
		if err != nil {
			return nil, err
		}
		if err := spec.ValidateFor(m); err != nil {
			return nil, err
		}
		ho.Fault = spec
	}
	if ho.Arrival, err = load.ParseArrival(o.Arrival); err != nil {
		return nil, err
	}
	if ho.Link, err = load.ParseLink(o.Link); err != nil {
		return nil, err
	}
	if ho.Shed, err = load.ParseShed(o.Shed); err != nil {
		return nil, err
	}
	hs := e.Run(ho)
	return &Series{ID: hs.ID, Title: hs.Title, Unit: hs.Unit, Point: hs.Points,
		Failed: hs.Failed, Notes: hs.Notes, inner: hs}, nil
}

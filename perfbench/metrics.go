package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metric describes one reported number. For a per-layer metric, moves and
// on name the end-to-end metric and the workload it should move; a
// simulated count is an invariant and moves nothing.
type metric struct {
	name, unit, better string
	moves, on          string
}

// endToEnd is the order and definition of the untraced run's metrics.
// Every timing is host time with tracing off. ok_frac stands in for the
// failed fraction (1 - ok_frac), because a gated metric must never read 0.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "sweep_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "max_rss_mb", unit: "MB", better: "lower"},
	{name: "ok_frac", unit: "ratio", better: "higher"},
}

const (
	allWorkloads  = "all"
	invariant     = "none (simulated, repeats exactly)"
	allQuick      = "all-quick-cold, all-quick-warm"
	profileMoving = "cpu_s (reported, not gated)"
)

// perLayer is the order and definition of the traced run's metrics, with
// the end-to-end metric and workload each should move.
var perLayer = []metric{
	{"harness.points", "count", "higher", "ok_frac", allWorkloads},
	{"harness.points_failed", "count", "lower", "ok_frac", allWorkloads},
	{"harness.experiment_s.p50", "s", "lower", "sweep_s", allQuick},
	{"harness.experiment_s.max", "s", "lower", "sweep_s", allQuick},
	{"harness.uncached_s", "s", "lower", "sweep_s", "all-quick-warm"},
	{"harness.uncached_experiments", "count", "lower", "sweep_s", "all-quick-warm"},
	{"harness.replay_s", "s", "lower", "sweep_s", "all-quick-warm"},
	{"harness.cache_hits", "count", "higher", "sweep_s", "all-quick-warm"},
	{"harness.cache_misses", "count", "lower", "sweep_s", "all-quick-warm"},
	{"harness.cache_invalidated", "count", "lower", "sweep_s", "all-quick-warm"},
	{"harness.cache_hit_ratio", "ratio", "higher", "sweep_s", "all-quick-warm"},
	{"harness.cache_open_s", "s", "lower", "setup_s", "all-quick-warm"},
	{"harness.cache_file_kb", "KB", "lower", "setup_s", "all-quick-warm"},
	{"harness.cache_save_s", "s", "lower", "sweep_s", "all-quick-cold"},
	{"harness.point_overhead_s", "s", "lower", "sweep_s", "exim-cold"},
	{"sim.engine_reset_us.p50", "us", "lower", "sweep_s", "exim-cold"},
	{"sim.virtual_mcycles", "Mcycles", "lower", invariant, allWorkloads},
	{"sim.busy_mcycles", "Mcycles", "lower", invariant, allWorkloads},
	{"sim.host_ns_per_kcycle", "ns/kcycle", "lower", "cpu_s", "exim-cold"},
	{"sim.parked_procs", "count", "lower", "max_rss_mb", "exim-cold"},
	{"kernel.boot_us.p50", "us", "lower", "sweep_s", "exim-cold"},
	{"apps.run_ms.p50", "ms", "lower", "sweep_s", "exim-cold"},
	{"apps.run_ms.n", "count", "higher", invariant, allWorkloads},
	{"apps.run_s", "s", "lower", "sweep_s", "exim-cold"},
	{"apps.ops", "count", "higher", invariant, allWorkloads},
	{"apps.sys_frac", "ratio", "lower", invariant, allWorkloads},
	{"mem.reads", "count", "lower", "cpu_s", "exim-cold"},
	{"mem.writes", "count", "lower", "cpu_s", "exim-cold"},
	{"mem.remote_ratio", "ratio", "lower", "cpu_s", "exim-cold"},
	{"mem.dram_util_max", "ratio", "lower", invariant, "all-quick-cold"},
	{"mem.link_util_max", "ratio", "lower", invariant, "all-quick-cold"},
	{"vfs.mount_lookups", "count", "lower", "cpu_s", "exim-cold"},
	{"vfs.mount_hit_ratio", "ratio", "higher", "cpu_s", "exim-cold"},
	{"slock.acquisitions", "count", "lower", "cpu_s", "exim-cold"},
	{"slock.contended_ratio", "ratio", "lower", "cpu_s", "exim-cold"},
	{"netsim.retries_per_op.max", "count", "lower", invariant, "all-quick-cold"},
	{"load.p99_us.max", "us", "lower", invariant, "all-quick-cold"},
	{"load.goodput_ratio.min", "ratio", "higher", invariant, "all-quick-cold"},
	{"runtime.gc_cycles", "count", "lower", "cpu_s", allWorkloads},
	{"runtime.alloc_mb", "MB", "lower", "max_rss_mb", allWorkloads},
	{"runtime.goroutines_max", "count", "lower", "max_rss_mb", allWorkloads},
	{"runtime.sched_latency_p90_us", "us", "lower", "sweep_s", "exim-cold"},
	{"trace.overhead_s", "s", "lower", "none (traced minus untraced sweep_s)", allWorkloads},
	{"profile.samples", "count", "higher", profileMoving, allWorkloads},
	{"profile.sim", "ratio", "lower", profileMoving, "exim-cold"},
	{"profile.mem", "ratio", "lower", profileMoving, "exim-cold"},
	{"profile.vfs", "ratio", "lower", profileMoving, "exim-cold"},
	{"profile.slock", "ratio", "lower", profileMoving, "exim-cold"},
	{"profile.mm", "ratio", "lower", profileMoving, "exim-cold"},
	{"profile.proc", "ratio", "lower", profileMoving, "exim-cold"},
	{"profile.netsim", "ratio", "lower", profileMoving, "all-quick-cold"},
	{"profile.load", "ratio", "lower", profileMoving, "all-quick-cold"},
	{"profile.kernel", "ratio", "lower", profileMoving, "exim-cold"},
	{"profile.apps", "ratio", "lower", profileMoving, "exim-cold"},
	{"profile.harness", "ratio", "lower", profileMoving, allQuick},
	{"profile.runtime", "ratio", "lower", profileMoving, "exim-cold"},
	{"profile.other", "ratio", "lower", profileMoving, allWorkloads},
}

// nameGrammar is what a metric name may contain.
var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report builds the metrics object from vals, which must hold exactly the
// metrics in defs: a missing or extra name is a bug in the benchmark.
func report(defs []metric, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), the rule
// the acceptance check uses; one value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

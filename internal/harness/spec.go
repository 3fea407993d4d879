package harness

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/topo"
)

// A sweep cell is addressed by what it simulates, not by the label an
// experiment shows it under. Figure 3's bars are the ends of Figures 4–11,
// ablate's baselines are the stock 48-core runs of fig4–fig8, and the
// machines experiment's default-host rows are fig4's and fig5's: each of
// those is one spec, so sweep computes it once per call and the attached
// Cache serves it to every experiment that asks.

// The cost-domain lists specs declare (see costDomains): the engine and
// memory system alone, or those plus a booted kernel.
var (
	memDomains    = []string{"topo", "mem"}
	kernelDomains = []string{"topo", "mem", "kernel"}
)

// domainsFor is an application run's domain list: the kernel's plus the
// application's own constants.
func domainsFor(app string) []string {
	return append(slices.Clip(kernelDomains), "apps/"+app)
}

// spec is the canonical description of one sweep cell's simulation. Its
// key is the cell's identity in the cache, the shard split and sweep's
// deduplication, so every input the cell's body reads must be a term of
// it; its domains name the cost-model constants the result depends on and
// pick the cache section.
type spec struct {
	// workload names the simulation: an application ("exim", "memcached",
	// ...) or an engine-level probe ("latencies", "stream", ...).
	workload string
	// measure names what the body reports when that is not the workload's
	// standard Point ("" when it is): "profile" for lock and line metrics,
	// "pps" for the NIC's aggregate packet rate.
	measure string
	// opts renders the workload's options after quick scaling: every input
	// the body reads beyond the terms below.
	opts string
	// cfg is the kernel the cell boots; nil for cells that boot none.
	cfg *kernel.Config
	// machine is the simulated host, with cores of it enabled, filled
	// round-robin across chips when rr is set and chip by chip otherwise.
	machine *topo.Machine
	rr      bool
	cores   int
	// placement and fault are the run's placement policy and fault plan
	// (nil for a clean run).
	placement mem.Placement
	fault     *fault.Spec
	seed      uint64
	domains   []string

	// key and section are rendered once by newSpec.
	key, section string
}

// newSpec completes sp with the run-wide terms cell bodies read from it
// (machine, seed, placement and fault plan) and renders its key and
// section; the key also carries o's quick flag and open-loop specs, which
// bodies read from the Options they run with. It is where Options reach a cell's identity: cachekeylint
// checks that every Options field is read here or is annotated as unable
// to change a point. An experiment that varies one of these terms per cell
// (degrade's fault severity, latload's shed policy, a figure's striped
// curve) sets it on a copy of o before building the cell.
func (o Options) newSpec(sp spec) spec {
	sp.machine = o.machine()
	sp.seed = o.seed()
	sp.placement = o.Placement
	if !o.Fault.IsZero() {
		sp.fault = o.Fault
		if !slices.Contains(sp.domains, "fault") {
			sp.domains = append(slices.Clip(sp.domains), "fault")
		}
	}

	workload, kcfg, fill := sp.workload, "none", "seq"
	if sp.measure != "" {
		workload += "/" + sp.measure
	}
	if sp.cfg != nil {
		kcfg = sp.cfg.String()
	}
	if sp.rr {
		fill = "rr"
	}
	sp.key = fmt.Sprintf("%s|%s|kernel=%s|machine=%s/%s|cores=%d|seed=%d|quick=%t|placement=%s|fault=%s|arrival=%s|link=%s|shed=%s",
		workload, sp.opts, kcfg, sp.machine.Name, fill, sp.cores, sp.seed, o.Quick, sp.placement.String(),
		sp.fault.String(), o.Arrival.String(), o.Link.String(), o.Shed.String())
	sp.section = strings.Join(sp.domains, "+")
	if !sp.machine.IsDefault() {
		sp.section += "@" + sp.machine.Name
	}
	return sp
}

// topo returns sp's machine with its cores enabled in its fill order.
func (sp *spec) topo() *topo.Machine {
	if sp.rr {
		return sp.machine.WithCoresRR(sp.cores)
	}
	return sp.machine.WithCores(sp.cores)
}

// cell is one sweep point. spec says what it simulates; run measures that
// on the sweep worker's engine and returns an unlabeled Point; view, when
// set, projects the measurement into the experiment's units. variant and
// cores label the projected Point and name the cell in Series.Failed, so
// the pair is unique within an experiment. cores is the point's x-axis
// value: a core count, or for degrade and latload the severity or load
// percent.
type cell struct {
	variant string
	cores   int
	spec    *spec
	run     func(o Options) Point
	view    func(p Point) Point
}

// newCell builds the cell that runs sp (completed by o.newSpec) through
// run, which reads everything it simulates from the spec it is handed.
func (o Options) newCell(sp spec, run func(o Options, sp *spec) Point) cell {
	full := o.newSpec(sp)
	return cell{spec: &full, run: func(co Options) Point { return run(co, &full) }}
}

// as labels c.
func (c cell) as(variant string, x int) cell {
	c.variant, c.cores = variant, x
	return c
}

// then appends f to c's view.
func (c cell) then(f func(p Point) Point) cell {
	if prev := c.view; prev != nil {
		c.view = func(p Point) Point { return f(prev(p)) }
	} else {
		c.view = f
	}
	return c
}

// scaled multiplies c's throughput columns by f: fig9–fig11 report jobs
// per hour from the runners' jobs per second.
func (c cell) scaled(f float64) cell {
	return c.then(func(p Point) Point {
		p.PerCore *= f
		p.OfferedPerCore *= f
		return p
	})
}

// cpu keeps only c's throughput and CPU breakdown, at the fixed core count
// cores: a parameter sweep's point.
func (c cell) cpu(cores int) cell {
	return c.then(func(p Point) Point {
		return Point{Cores: cores, PerCore: p.PerCore, UserMicros: p.UserMicros, SysMicros: p.SysMicros}
	})
}

// project turns c's measurement into the experiment's labeled point.
func (c cell) project(p Point) Point {
	if c.view != nil {
		p = c.view(p)
	}
	p.Variant = c.variant
	return p
}

// variantRun is one labeled curve of a grid experiment: at builds its cell
// at each value of the grid's axis.
type variantRun struct {
	name string
	at   func(x int) cell
}

// grid builds the variants × axis cell list, grouped by variant with the
// axis in the given order — the order nested serial loops would produce.
func grid(axis []int, runs []variantRun) []cell {
	cells := make([]cell, 0, len(runs)*len(axis))
	for _, vr := range runs {
		for _, x := range axis {
			cells = append(cells, vr.at(x).as(vr.name, x))
		}
	}
	return cells
}

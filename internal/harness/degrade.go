package harness

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/topo"
)

// DefaultDegradeSpec is the fault plan the degrade experiment sweeps when
// the run supplies none: two half-rate HT links, one half-rate memory
// controller on the I/O hub chip, and 2% client-visible packet loss.
const DefaultDegradeSpec = "link:0-1@50%,link:4-5@50%,dram:0@50%,drop:0.02"

// degradeQuickCores is the reduced core count quick severity sweeps run
// at; full runs use the whole machine.
const degradeQuickCores = 8

// degradeSeverities is the fault-scale sweep, in percent of the full spec.
var (
	degradeSeverities      = []int{0, 25, 50, 75, 100}
	degradeQuickSeverities = []int{0, 50, 100}
)

func init() {
	register(Experiment{
		ID:    "degrade",
		Title: "Graceful degradation under injected faults (memcached, fixed cores)",
		Paper: "Robustness extension (not a paper figure): per-core throughput vs fault severity, stock vs PK",
		Run:   runDegrade,
	})
}

// runDegrade sweeps fault severity at a fixed core count: the base fault
// spec (Options.Fault, or DefaultDegradeSpec) is scaled to each severity
// and injected into a stock and a PK memcached run. The Cores column
// carries the severity percent (the precedent is fig3, whose Cores column
// carries the application ordinal).
func runDegrade(o Options) *Series {
	m := o.machine()
	cores := m.MaxCores()
	severities := degradeSeverities
	if o.Quick {
		if degradeQuickCores < cores {
			cores = degradeQuickCores
		}
		severities = degradeQuickSeverities
	}
	base := o.Fault
	if base == nil || base.IsZero() {
		var err error
		base, err = fault.Parse(DefaultDegradeSpec)
		if err != nil {
			panic(fmt.Sprintf("harness: DefaultDegradeSpec: %v", err))
		}
	}

	s := &Series{
		ID:    "degrade",
		Title: fmt.Sprintf("Graceful degradation at %d cores, fault spec %s", cores, base),
		Unit:  "req/s/core",
	}
	// Severity is the cells' axis; each run pins the real core count, and
	// its fault plan is a spec term, so the clean 0% cells are fig5's.
	var runs []variantRun
	for _, cfgv := range []struct {
		name string
		cfg  kernel.Config
	}{{"Stock", kernel.Stock()}, {"PK", kernel.PK()}} {
		runs = append(runs, variantRun{cfgv.name, func(sev int) cell {
			so := o
			so.Fault = base.Scale(float64(sev) / 100)
			return so.memcached(cfgv.cfg, cores).then(func(p Point) Point {
				p.Cores = sev // severity percent, the series' x-axis
				return p
			})
		}})
	}
	pts, errs := o.sweepPoints(s, grid(severities, runs))

	s.Notes = append(s.Notes,
		fmt.Sprintf("cores column = fault severity (%% of spec) at a fixed %d cores", cores),
		fmt.Sprintf("injected capacity loss at full severity: %.0f%%", 100*base.LossBound(cores)))
	for vi, vr := range runs {
		row := vi * len(severities)
		healthy := pts[row]
		if errs[row] != nil || healthy.PerCore <= 0 {
			continue
		}
		for j, sev := range severities[1:] {
			if why := rowSkipReason(errs[row+1+j : row+2+j]); why != "" {
				s.Notes = append(s.Notes, fmt.Sprintf("  %-6s @%3d%%: skipped: %s", vr.name, sev, why))
				continue
			}
			p := pts[row+1+j]
			floor := gracefulFloor(m, base.Scale(float64(sev)/100), cores, healthy.PerCore)
			s.Notes = append(s.Notes, fmt.Sprintf(
				"  %-6s @%3d%%: retention %.2f (graceful floor %.2f), %.3f retries/op",
				vr.name, sev, p.PerCore/healthy.PerCore, floor, p.Retries))
		}
	}
	return s
}

// degradePacketsPerOp bounds memcached's client-visible packets per
// operation (request, response, protocol acks) for the graceful floor.
const degradePacketsPerOp = 6

// gracefulFloor is the graceful-degradation contract the degrade tests
// assert: the fraction of healthy per-core throughput a run under the
// scaled spec must retain. Two multiplicative terms: removed hardware
// capacity costs at most its own share (fault.LossBound), and every
// dropped packet of a closed-loop client costs at most ~two base retry
// backoffs of wall clock (doubling on the rare consecutive losses). A
// system below the floor collapsed — deadlocked, livelocked, or cascading
// — rather than degraded.
func gracefulFloor(m *topo.Machine, scaled *fault.Spec, cores int, healthyPerCore float64) float64 {
	capLoss := scaled.LossBound(cores)
	drop, dup := scaled.NetProbs()
	// Healthy per-op wall cycles on one core, from the measured baseline.
	opCycles := m.CyclesPerSec() / healthyPerCore
	latency := 1 + degradePacketsPerOp*(drop*2*float64(fault.RetryBaseCycles)+dup*float64(fault.RetryBaseCycles)/4)/opCycles
	return (1 - capLoss) / latency
}

package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kernel"
	"repro/internal/topo"
)

func init() {
	register(Experiment{
		ID:    "machines",
		Title: "Stock vs PK scaling across machine profiles",
		Paper: "Figures 4/5 re-run per registered host profile: where collapse onset moves with machine shape",
		Run:   runMachines,
	})
}

// machinesCollapseFrac defines collapse onset: the first core count where
// a curve's per-core throughput falls below this fraction of its running
// peak. The paper's stock curves collapse (Figures 4, 5); the PK curves
// are expected to sustain through the full machine.
const machinesCollapseFrac = 0.5

// machineOrder lists the registered profiles with the default host first,
// so the paper's machine anchors the table and every movement note reads
// against it.
func machineOrder() []string {
	def := topo.Default().Name
	out := []string{def}
	for _, n := range topo.Names() {
		if n != def {
			out = append(out, n)
		}
	}
	return out
}

// runMachines sweeps the fig4 (Exim) and fig5 (memcached) stock-vs-PK
// grids on every registered machine profile. Each profile runs its own
// machine-sized core grid, and each non-default profile caches under its
// own sections. The default machine's cells are fig4's and fig5's own
// specs, so a cache those figures filled serves them. The Notes report
// each curve's collapse onset and how the stock onsets move relative to
// the default host.
func runMachines(o Options) *Series {
	s := &Series{ID: "machines", Title: "Stock vs PK across machine profiles", Unit: "ops/s/core"}
	workloads := []struct {
		app string
		run func(o Options, cfg kernel.Config, cores int) cell
	}{
		{"Exim", Options.exim},
		{"memcached", Options.memcached},
	}
	variants := []struct {
		label string
		cfg   kernel.Config
	}{
		{"Stock", kernel.Stock()},
		{"PK", kernel.PK()},
	}
	names := machineOrder()
	for _, name := range names {
		m, ok := topo.Lookup(name)
		if !ok {
			continue
		}
		so := o
		so.Machine = m
		var runs []variantRun
		for _, w := range workloads {
			for _, v := range variants {
				label := fmt.Sprintf("%s %s %s", name, w.app, v.label)
				runs = append(runs, variantRun{label, func(c int) cell { return w.run(so, v.cfg, c) }})
			}
		}
		// Each profile sweeps its own machine-sized grid, whatever o.Cores.
		so.sweepPoints(s, grid(standardCores(m, o.Quick), runs))
	}

	s.Notes = append(s.Notes, fmt.Sprintf(
		"collapse onset: first core count where per-core throughput drops below %d%% of the curve's running peak",
		int(machinesCollapseFrac*100)))
	type key struct{ profile, app, variant string }
	onsets := map[key]string{}
	stockOnset := map[string]map[string]int{} // profile -> app -> onset cores (0 = none)
	for _, name := range names {
		m, ok := topo.Lookup(name)
		if !ok {
			continue
		}
		stockOnset[name] = map[string]int{}
		var cells []string
		for _, w := range workloads {
			for _, v := range variants {
				label := fmt.Sprintf("%s %s %s", name, w.app, v.label)
				cell := fmt.Sprintf("none (%dc)", m.MaxCores())
				if c, ok := seriesCollapseOnset(s, label); ok {
					cell = fmt.Sprintf("%dc", c)
					if v.label == "Stock" {
						stockOnset[name][w.app] = c
					}
				}
				onsets[key{name, w.app, v.label}] = cell
				cells = append(cells, fmt.Sprintf("%s %s: %s", w.app, v.label, cell))
			}
		}
		s.Notes = append(s.Notes, fmt.Sprintf("  %-8s %s", name, strings.Join(cells, "   ")))
	}
	def := names[0]
	for _, name := range names[1:] {
		var moves []string
		for _, w := range workloads {
			from, to := stockOnset[def][w.app], stockOnset[name][w.app]
			switch {
			case from == 0 && to == 0:
				moves = append(moves, fmt.Sprintf("%s Stock: none on either", w.app))
			case to == 0:
				moves = append(moves, fmt.Sprintf("%s Stock: %dc -> none", w.app, from))
			case from == 0:
				moves = append(moves, fmt.Sprintf("%s Stock: none -> %dc", w.app, to))
			default:
				moves = append(moves, fmt.Sprintf("%s Stock: %dc -> %dc (%+dc)", w.app, from, to, to-from))
			}
		}
		s.Notes = append(s.Notes, fmt.Sprintf("  onset movement %s vs %s: %s", name, def, strings.Join(moves, ", ")))
	}
	return s
}

// seriesCollapseOnset scans one variant's curve (cores ascending) for the first
// point whose per-core throughput is below machinesCollapseFrac of the
// running peak. Returns false if the curve never collapses.
func seriesCollapseOnset(s *Series, variant string) (int, bool) {
	var pts []Point
	for _, p := range s.Points {
		if p.Variant == variant {
			pts = append(pts, p)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Cores < pts[j].Cores })
	peak := 0.0
	for _, p := range pts {
		if p.PerCore > peak {
			peak = p.PerCore
		}
		if peak > 0 && p.PerCore < machinesCollapseFrac*peak {
			return p.Cores, true
		}
	}
	return 0, false
}

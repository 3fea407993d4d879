package harness

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// scale reduces an op budget for quick runs.
func scale(n int, quick bool) int {
	if quick {
		n /= 4
		if n < 5 {
			n = 5
		}
	}
	return n
}

// point converts an app result to an unlabeled harness point, in the
// runner's units (operations per second per core).
func point(r apps.Result) Point {
	return Point{
		Cores:          r.Cores,
		PerCore:        r.PerCore(),
		UserMicros:     r.UserMicrosPerOp(),
		SysMicros:      r.SysMicrosPerOp(),
		DRAMUtil:       r.DRAMUtil,
		LinkUtil:       r.LinkUtil,
		Retries:        r.RetriesPerOp(),
		Dups:           r.DupsPerOp(),
		OfferedPerCore: r.OfferedPerCore,
		P50Micros:      r.SojournMicros(0.50),
		P99Micros:      r.SojournMicros(0.99),
		P999Micros:     r.SojournMicros(0.999),
	}
}

// ---- Application cells shared by every experiment that runs an app ----
//
// Each constructor returns the unlabeled cell for one application run.
// Experiments that simulate the same thing build it through the same
// constructor, so their specs are equal and the run is computed once.

// appCell is the cell for one application run: its spec renders opts and
// cfg, and its body boots cfg on the spec's machine and runs the app with
// exactly those opts.
func appCell[O any](o Options, app string, opts O, cfg kernel.Config, cores int, rr bool,
	run func(*kernel.Kernel, O) apps.Result) cell {
	return o.newCell(spec{workload: app, opts: fmt.Sprintf("%+v", opts), cfg: &cfg, cores: cores, rr: rr, domains: domainsFor(app)},
		func(co Options, sp *spec) Point { return point(run(co.boot(sp), opts)) })
}

func (o Options) eximOpts() apps.EximOpts {
	opts := apps.DefaultEximOpts()
	opts.MessagesPerCore = scale(opts.MessagesPerCore, o.Quick)
	return opts
}

func (o Options) memcachedOpts() apps.MemcachedOpts {
	opts := apps.DefaultMemcachedOpts()
	opts.RequestsPerCore = scale(opts.RequestsPerCore, o.Quick)
	return opts
}

func (o Options) exim(cfg kernel.Config, cores int) cell {
	return appCell(o, "exim", o.eximOpts(), cfg, cores, false, apps.RunExim)
}

func (o Options) memcached(cfg kernel.Config, cores int) cell {
	return appCell(o, "memcached", o.memcachedOpts(), cfg, cores, false, apps.RunMemcached)
}

// apache runs Apache as the paper does on cfg: without the parallel accept
// fix, one instance per core on distinct ports (§5.4); with it, one
// instance serving every core.
func (o Options) apache(cfg kernel.Config, cores int) cell {
	opts := apps.DefaultApacheOpts()
	opts.RequestsPerCore = scale(opts.RequestsPerCore, o.Quick)
	opts.SingleInstance = cfg.ParallelAccept
	return appCell(o, "apache", opts, cfg, cores, false, apps.RunApache)
}

func (o Options) postgres(cfg kernel.Config, cores int, writeFrac float64, mod bool) cell {
	opts := apps.DefaultPostgresOpts()
	opts.QueriesPerCore = scale(opts.QueriesPerCore, o.Quick)
	opts.WriteFraction = writeFrac
	opts.ModPG = mod
	opts.Placement = o.Placement
	return appCell(o, "postgres", opts, cfg, cores, false, apps.RunPostgres)
}

func (o Options) gmake(cfg kernel.Config, cores int) cell {
	opts := apps.DefaultGmakeOpts()
	opts.Objects = scale(opts.Objects, o.Quick)
	opts.Placement = o.Placement
	return appCell(o, "gmake", opts, cfg, cores, false, apps.RunGmake)
}

func (o Options) pedsort(mode apps.PedsortMode, cores int) cell {
	opts := apps.DefaultPedsortOpts()
	opts.Files = scale(opts.Files, o.Quick)
	opts.Mode = mode
	opts.Placement = o.Placement
	return appCell(o, "pedsort", opts, kernel.Stock(), cores, mode == apps.PedsortProcsRR, apps.RunPedsort)
}

// metis runs the MapReduce job on cfg with 4KB or 2MB (super) pages, its
// workers filled round-robin across chips.
func (o Options) metis(cfg kernel.Config, super bool, cores int) cell {
	opts := apps.DefaultMetisOpts()
	if o.Quick {
		opts.InputBytes /= 4
	}
	opts.SuperPages = super
	opts.Placement = o.Placement
	return appCell(o, "metis", opts, cfg, cores, true, apps.RunMetis)
}

// figMetis is Figure 11's pairing: 4KB pages on stock, 2MB pages on PK.
func (o Options) figMetis(super bool, cores int) cell {
	if super {
		return o.metis(kernel.PK(), true, cores)
	}
	return o.metis(kernel.Stock(), false, cores)
}

// stockPK runs a two-variant (Stock vs PK) sweep of one application, plus
// any registered extra variants (a figure's own placement curve, say).
func stockPK(o Options, unit string, id, title string,
	mk func(o Options, cfg kernel.Config, cores int) cell, extras ...variantRun) *Series {

	s := &Series{ID: id, Title: title, Unit: unit}
	runs := []variantRun{
		{"Stock", func(c int) cell { return mk(o, kernel.Stock(), c) }},
		{"PK", func(c int) cell { return mk(o, kernel.PK(), c) }},
	}
	o.sweepPoints(s, grid(o.cores(), append(runs, extras...)))
	return s
}

// striped returns o with bulk data striped across every chip, for the
// figures' registered placement curves.
func (o Options) striped() Options {
	o.Placement = mem.Placement{Kind: mem.PlaceStriped}
	return o
}

// ---- Experiment registrations ----

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Kernel scalability problems and fixes",
		Paper: "Figure 1: the 16 bottlenecks and their PK solutions",
		Run: func(o Options) *Series {
			s := &Series{ID: "fig1", Title: "Kernel scalability problems and fixes (Figure 1)"}
			for _, f := range kernel.Fixes {
				s.Notes = append(s.Notes,
					fmt.Sprintf("%-22s [%s]", f.Name, strings.Join(f.Apps, ", ")),
					"  problem:  "+f.Problem,
					"  solution: "+f.Solution)
			}
			return s
		},
	})

	register(Experiment{
		ID:    "fig3",
		Title: "MOSBENCH summary: 48-core per-core throughput relative to 1 core",
		Paper: "Figure 3: one bar pair (stock, PK) per application",
		Run:   runFig3,
	})

	register(Experiment{
		ID:    "fig4",
		Title: "Exim throughput and runtime breakdown",
		Paper: "Figure 4: messages/sec/core and CPU us/message vs cores",
		Run: func(o Options) *Series {
			return stockPK(o, "msg/s/core", "fig4", "Exim (Figure 4)", Options.exim)
		},
	})

	register(Experiment{
		ID:    "fig5",
		Title: "memcached throughput",
		Paper: "Figure 5: requests/sec/core vs cores",
		Run: func(o Options) *Series {
			return stockPK(o, "req/s/core", "fig5", "memcached (Figure 5)", Options.memcached)
		},
	})

	register(Experiment{
		ID:    "fig6",
		Title: "Apache throughput and runtime breakdown",
		Paper: "Figure 6: requests/sec/core and CPU us/request vs cores",
		Run: func(o Options) *Series {
			return stockPK(o, "req/s/core", "fig6", "Apache (Figure 6)", func(o Options, cfg kernel.Config, c int) cell {
				return o.apache(cfg, c)
			})
		},
	})

	register(Experiment{
		ID:    "fig7",
		Title: "PostgreSQL read-only workload",
		Paper: "Figure 7: queries/sec/core and CPU us/query vs cores",
		Run:   func(o Options) *Series { return runPostgresFig(o, "fig7", 0) },
	})

	register(Experiment{
		ID:    "fig8",
		Title: "PostgreSQL 95%/5% read/write workload",
		Paper: "Figure 8: queries/sec/core and CPU us/query vs cores",
		Run:   func(o Options) *Series { return runPostgresFig(o, "fig8", 0.05) },
	})

	register(Experiment{
		ID:    "fig9",
		Title: "gmake parallel kernel build",
		Paper: "Figure 9: builds/hour/core and CPU sec/build vs cores, plus a striped-placement PK curve",
		Run: func(o Options) *Series {
			// Builds/hour/core: scale jobs/sec/core by 3600. The registered
			// placement variant mirrors fig11's: the PK build with its
			// object stream striped across every chip, so the figure shows
			// placement's effect without a second -placement run.
			gmake := func(o Options, cfg kernel.Config, c int) cell { return o.gmake(cfg, c).scaled(3600) }
			return stockPK(o, "builds/hr/core", "fig9", "gmake (Figure 9)", gmake,
				variantRun{"PK + striped", func(c int) cell { return gmake(o.striped(), kernel.PK(), c) }})
		},
	})

	register(Experiment{
		ID:    "fig10",
		Title: "Psearchy/pedsort file indexing",
		Paper: "Figure 10: jobs/hour/core for Threads, Procs, Procs RR, plus a striped-placement RR curve",
		Run: func(o Options) *Series {
			s := &Series{ID: "fig10", Title: "pedsort (Figure 10)", Unit: "jobs/hr/core"}
			var runs []variantRun
			for _, mode := range []apps.PedsortMode{apps.PedsortThreads, apps.PedsortProcs, apps.PedsortProcsRR} {
				runs = append(runs, variantRun{mode.String(), func(c int) cell { return o.pedsort(mode, c).scaled(3600) }})
			}
			// Registered placement variant, like fig11's: the round-robin
			// configuration with its file streams striped across every
			// chip's memory controller.
			runs = append(runs, variantRun{"Procs RR + striped", func(c int) cell {
				return o.striped().pedsort(apps.PedsortProcsRR, c).scaled(3600)
			}})
			o.sweepPoints(s, grid(o.cores(), runs))
			return s
		},
	})

	register(Experiment{
		ID:    "fig11",
		Title: "Metis MapReduce inverted index",
		Paper: "Figure 11: jobs/hour/core for 4KB stock vs 2MB PK, plus a striped-placement PK curve",
		Run: func(o Options) *Series {
			s := &Series{ID: "fig11", Title: "Metis (Figure 11)", Unit: "jobs/hr/core"}
			o.sweepPoints(s, grid(o.cores(), []variantRun{
				{"Stock + 4KB pages", func(c int) cell { return o.figMetis(false, c).scaled(3600) }},
				{"PK + 2MB pages", func(c int) cell { return o.figMetis(true, c).scaled(3600) }},
				// Registered placement variant: the same PK configuration
				// with its reduce stream striped across every chip, so the
				// figure itself shows what placement does to the curve
				// instead of requiring a second run with the global
				// -placement knob.
				{"PK + 2MB striped", func(c int) cell { return o.striped().figMetis(true, c).scaled(3600) }},
			}))
			return s
		},
	})

	register(Experiment{
		ID:    "fig12",
		Title: "Remaining MOSBENCH bottlenecks at 48 cores on PK",
		Paper: "Figure 12: residual bottleneck attribution (App vs HW)",
		Run:   runFig12,
	})
}

// runPostgresFig produces the three-variant PostgreSQL figure.
func runPostgresFig(o Options, id string, writeFrac float64) *Series {
	title := "PostgreSQL read-only (Figure 7)"
	if writeFrac > 0 {
		title = "PostgreSQL 95/5 read/write (Figure 8)"
	}
	s := &Series{ID: id, Title: title, Unit: "q/s/core"}
	var runs []variantRun
	for _, v := range []struct {
		name string
		cfg  kernel.Config
		mod  bool
	}{
		{"Stock", kernel.Stock(), false},
		{"Stock + mod PG", kernel.Stock(), true},
		{"PK + mod PG", kernel.PK(), true},
	} {
		runs = append(runs, variantRun{v.name, func(c int) cell { return o.postgres(v.cfg, c, writeFrac, v.mod) }})
	}
	o.sweepPoints(s, grid(o.cores(), runs))
	return s
}

// suiteApp is one MOSBENCH application as the summary figures (3, 12)
// run it: its stock and PK configurations, and the paper's attribution of
// its residual bottleneck on PK.
type suiteApp struct {
	name, attribution string
	stock, pk         func(cores int) cell
}

// suite lists the applications in Figure 3's order. Each runs exactly as
// its own figure runs it (fig4–fig9's Stock and PK curves, fig10's Threads
// and Procs RR, fig11's 4KB and 2MB pages), so the summary cells are that
// figure's cells.
func (o Options) suite() []suiteApp {
	return []suiteApp{
		{"Exim", "App: Contention on spool directories",
			func(c int) cell { return o.exim(kernel.Stock(), c) },
			func(c int) cell { return o.exim(kernel.PK(), c) }},
		{"memcached", "HW: Transmit queues on NIC",
			func(c int) cell { return o.memcached(kernel.Stock(), c) },
			func(c int) cell { return o.memcached(kernel.PK(), c) }},
		{"Apache", "HW: Receive queues on NIC",
			func(c int) cell { return o.apache(kernel.Stock(), c) },
			func(c int) cell { return o.apache(kernel.PK(), c) }},
		{"PostgreSQL", "App: Application-level spin lock",
			func(c int) cell { return o.postgres(kernel.Stock(), c, 0, false) },
			func(c int) cell { return o.postgres(kernel.PK(), c, 0, true) }},
		{"gmake", "App: Serial stages and stragglers",
			func(c int) cell { return o.gmake(kernel.Stock(), c) },
			func(c int) cell { return o.gmake(kernel.PK(), c) }},
		{"pedsort", "HW: Cache capacity",
			func(c int) cell { return o.pedsort(apps.PedsortThreads, c) },
			func(c int) cell { return o.pedsort(apps.PedsortProcsRR, c) }},
		{"Metis", "HW: DRAM throughput",
			func(c int) cell { return o.figMetis(false, c) },
			func(c int) cell { return o.figMetis(true, c) }},
	}
}

// runFig3 computes the summary bars: per-core throughput at 48 cores
// relative to 1 core, stock vs PK, per application.
func runFig3(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "fig3", Title: "MOSBENCH summary (Figure 3)",
		Unit: fmt.Sprintf("ratio %dc/1c", max)}
	suite := o.suite()
	s.Notes = append(s.Notes, "Table rows are applications, in Figure 3's order:")
	// Each application needs four measurements (stock/PK at 1 and max
	// cores), each its own cell.
	var cells []cell
	for _, a := range suite {
		for _, v := range []struct {
			label string
			at    func(cores int) cell
		}{{a.name + "/Stock", a.stock}, {a.name + "/PK", a.pk}} {
			for _, cores := range []int{1, max} {
				cells = append(cells, v.at(cores).as(v.label, cores))
			}
		}
	}
	results, errs := o.sweep(s, cells)
	for i, a := range suite {
		if why := rowSkipReason(errs[i*4 : i*4+4]); why != "" {
			s.Notes = append(s.Notes, fmt.Sprintf("  row %d: %-12s skipped: %s", i+1, a.name, why))
			continue
		}
		s1, s48, p1, p48 := results[i*4], results[i*4+1], results[i*4+2], results[i*4+3]
		stockRatio := s48.PerCore / s1.PerCore
		pkRatio := p48.PerCore / p1.PerCore
		// The Cores column carries the application ordinal so the table
		// renders one application per row.
		s.Points = append(s.Points,
			Point{Cores: i + 1, Variant: "Stock", PerCore: stockRatio},
			Point{Cores: i + 1, Variant: "PK", PerCore: pkRatio})
		s.Notes = append(s.Notes, fmt.Sprintf("  row %d: %-12s stock %.2f   PK %.2f",
			i+1, a.name, stockRatio, pkRatio))
	}
	return s
}

// runFig12 classifies the residual 48-core bottleneck per application,
// pairing the paper's attribution with this reproduction's measurement.
func runFig12(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "fig12",
		Title: fmt.Sprintf("Remaining bottlenecks at %d cores (Figure 12)", max)}
	suite := o.suite()
	// Two measurements per row, both on PK: 1 and max cores.
	var cells []cell
	for _, a := range suite {
		for _, cores := range []int{1, max} {
			cells = append(cells, a.pk(cores).as(a.name, cores))
		}
	}
	pts, errs := o.sweep(s, cells)
	for i, a := range suite {
		if why := rowSkipReason(errs[i*2 : i*2+2]); why != "" {
			s.Notes = append(s.Notes, fmt.Sprintf("%-12s %-42s skipped: %s", a.name, a.attribution, why))
			continue
		}
		retained := pts[i*2+1].PerCore / pts[i*2].PerCore
		s.Notes = append(s.Notes,
			fmt.Sprintf("%-12s %-42s per-core retention at %dc: %.2f", a.name, a.attribution, max, retained))
	}
	return s
}

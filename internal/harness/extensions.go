package harness

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/prof"
	"repro/internal/scount"
	"repro/internal/sim"
)

// This file registers the extension experiments: the paper's analysis
// methodology (contention profiles) and the design-choice ablations listed
// in DESIGN.md §6 that go beyond the paper's figures.

func init() {
	register(Experiment{
		ID:    "profile",
		Title: "Contention profile of the stock kernel under Exim and memcached",
		Paper: "the paper's methodology: find the locks and lines cores wait on (§1, §5.2, §5.3)",
		Run:   runProfile,
	})

	register(Experiment{
		ID:    "sloppy-threshold",
		Title: "Sloppy counter spare-threshold sweep",
		Paper: "§4.3 design choice: local spares trade space for central-counter traffic",
		Run:   runSloppyThreshold,
	})

	register(Experiment{
		ID:    "spool-dirs",
		Title: "Exim spool directory sweep on PK at 48 cores",
		Paper: "§5.2: the residual Exim bottleneck is per-directory create locks",
		Run:   runSpoolDirs,
	})

	register(Experiment{
		ID:    "lockmgr",
		Title: "PostgreSQL lock-manager mutex count sweep (stock kernel, r/w)",
		Paper: "§5.5: 16 mutexes cause false contention; modPG uses 1024 + lock-free path",
		Run:   runLockMgr,
	})

	register(Experiment{
		ID:    "steering",
		Title: "Flow-director misdirection sweep for short connections",
		Paper: "§4.2: sampling misdirects most packets of short connections",
		Run:   runSteering,
	})

	register(Experiment{
		ID:    "scalable-locks",
		Title: "Scalable (MCS) lock vs data refactoring on the mount table",
		Paper: "§4.1/[41]: better locks alone cannot fix shared-data bottlenecks",
		Run:   runScalableLocks,
	})
}

// runScalableLocks runs Exim at 48 cores three ways: stock, stock with an
// MCS queue lock on the mount table, and stock with the paper's actual
// fixes for the mount path (sloppy vfsmount refcount + per-core caches).
// The MCS lock removes the lock-waiter traffic but the table entry and its
// embedded reference count still serialize, so only the refactoring
// restores throughput — the paper's central design argument.
func runScalableLocks(o Options) *Series {
	s := &Series{ID: "scalable-locks",
		Title: "Mount table: ticket lock vs MCS vs refactoring (Exim, 48 cores)",
		Unit:  "msg/s/core"}
	variants := []struct {
		name string
		cfg  kernel.Config
	}{
		{"Stock (ticket lock)", kernel.Stock()},
		{"Stock + MCS lock", func() kernel.Config {
			c := kernel.Stock()
			c.ScalableMountLock = true
			return c
		}()},
		{"Stock + mount refactoring", func() kernel.Config {
			c := kernel.Stock()
			c.SloppyVfsmountRef = true
			c.PerCoreMountCache = true
			return c
		}()},
	}
	max := o.maxCores()
	var cells []cell
	for _, v := range variants {
		cells = append(cells, o.exim(v.cfg, max).cpu(max).as(v.name, max))
	}
	o.sweepPoints(s, cells)
	return s
}

// runProfile reproduces the paper's diagnosis step: run a stock kernel
// under Exim and memcached at 48 cores and report where the cycles went.
// The top entries should be the very objects Figure 1 names.
func runProfile(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "profile",
		Title: fmt.Sprintf("Stock-kernel contention profile at %d cores", max)}
	workloads := []string{"Exim", "memcached"}
	// profiled is the cell that runs app with opts on the stock kernel and
	// reports its top locks and lines instead of its throughput.
	profiled := func(app string, opts any, run func(k *kernel.Kernel)) cell {
		stock := kernel.Stock()
		return o.newCell(spec{workload: app, measure: "profile", opts: fmt.Sprintf("%+v", opts),
			cfg: &stock, cores: max, domains: domainsFor(app)}, func(co Options, sp *spec) Point {
			k := co.boot(sp)
			run(k)
			return Point{Cores: max, Metrics: profileMetrics(k.MD.Prof, 6)}
		})
	}
	eximOpts, memcachedOpts := o.eximOpts(), o.memcachedOpts()
	memcachedOpts.UseNIC = false
	cells := []cell{
		profiled("exim", eximOpts, func(k *kernel.Kernel) { apps.RunExim(k, eximOpts) }).as(workloads[0], max),
		profiled("memcached", memcachedOpts, func(k *kernel.Kernel) { apps.RunMemcached(k, memcachedOpts) }).as(workloads[1], max),
	}
	pts, errs := o.sweep(s, cells)
	for i, app := range workloads {
		s.Notes = append(s.Notes, fmt.Sprintf("== %s on stock, %d cores ==", app, max))
		if why := rowSkipReason(errs[i : i+1]); why != "" {
			s.Notes = append(s.Notes, "skipped: "+why)
			continue
		}
		s.Notes = append(s.Notes, prof.Render(profileStats(pts[i].Metrics)))
	}
	return s
}

// profileMetrics flattens a registry's top n locks and lines into metrics
// in rank order: lock:<name>/wait_cy, /acq and /contended for each lock,
// then line:<name>/wait_cy and /writes for each line.
func profileMetrics(r *prof.Registry, n int) []Metric {
	var ms []Metric
	for _, l := range r.TopLocks(n) {
		ms = append(ms, Metric{"lock:" + l.Name + "/wait_cy", float64(l.WaitCycles)},
			Metric{"lock:" + l.Name + "/acq", float64(l.Acquisitions)},
			Metric{"lock:" + l.Name + "/contended", float64(l.Contended)})
	}
	for _, l := range r.TopLines(n) {
		ms = append(ms, Metric{"line:" + l.Name + "/wait_cy", float64(l.WaitCycles)},
			Metric{"line:" + l.Name + "/writes", float64(l.Writes)})
	}
	return ms
}

// profileStats is profileMetrics' inverse.
func profileStats(ms []Metric) (locks []prof.LockStats, lines []prof.LineStats) {
	for i := 0; i < len(ms); {
		kind, rest, _ := strings.Cut(ms[i].Name, ":")
		name := rest[:strings.LastIndexByte(rest, '/')]
		v := func(j int) int64 { return int64(ms[i+j].Value) }
		if kind == "lock" {
			locks = append(locks, prof.LockStats{Name: name, WaitCycles: v(0), Acquisitions: v(1), Contended: v(2)})
			i += 3
		} else {
			lines = append(lines, prof.LineStats{Name: name, WaitCycles: v(0), Writes: v(1)})
			i += 2
		}
	}
	return locks, lines
}

// runSloppyThreshold sweeps the per-core spare cap of a simulated sloppy
// counter under 48-core churn: too small and cores fall through to the
// central counter; larger thresholds cost space (and reconcile latency)
// for no additional speed.
func runSloppyThreshold(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "sloppy-threshold",
		Title: fmt.Sprintf("Sloppy counter threshold sweep (%d cores)", max),
		Unit:  "ops/s/core"}
	churn := scale(400, o.Quick)
	// Each worker holds several references at once (as a path walk does),
	// so small thresholds cannot park the whole working set locally and
	// fall through to the central counter.
	const batch = 3
	thresholds := []int64{1, 2, 4, 8, 16, 64}
	var cells []cell
	for _, threshold := range thresholds {
		cells = append(cells, o.newCell(spec{workload: "sloppy-churn",
			opts:  fmt.Sprintf("threshold=%d,churn=%d,batch=%d", threshold, churn, batch),
			cores: max, domains: kernelDomains}, func(co Options, sp *spec) Point {
			e, m := co.engine(sp)
			md := mem.NewModel(m)
			ctr := scount.NewSloppy(md, 0)
			ctr.Threshold = threshold
			for c := 0; c < max; c++ {
				e.Spawn(c, "churn", 0, func(p *sim.Proc) {
					for i := 0; i < churn; i++ {
						ctr.Acquire(p, batch)
						p.Advance(120)
						ctr.Release(p, batch)
					}
				})
			}
			e.Run()
			return Point{
				Cores:   max,
				PerCore: float64(max*churn) / secsFor(m, e.Now()) / float64(max),
				Metrics: []Metric{{"counter:central/ops", float64(ctr.CentralOps())},
					{"counter:local/ops", float64(ctr.LocalOps())}},
			}
		}).as(fmt.Sprintf("threshold=%d", threshold), max))
	}
	pts, errs := o.sweepPoints(s, cells)
	for i, threshold := range thresholds {
		if why := rowSkipReason(errs[i : i+1]); why != "" {
			s.Notes = append(s.Notes, fmt.Sprintf("threshold %-3d: skipped: %s", threshold, why))
			continue
		}
		central := int64(pts[i].Metric("counter:central/ops"))
		s.Notes = append(s.Notes, fmt.Sprintf("threshold %-3d: central ops %6d of %d total",
			threshold, central, central+int64(pts[i].Metric("counter:local/ops"))))
	}
	return s
}

// runSpoolDirs sweeps Exim's spool directory count on PK at 48 cores.
func runSpoolDirs(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "spool-dirs",
		Title: fmt.Sprintf("Exim spool directories (PK, %d cores)", max),
		Unit:  "msg/s/core"}
	var cells []cell
	for _, dirs := range []int{1, 2, 4, 8, 16, 62, 256} {
		opts := o.eximOpts()
		opts.SpoolDirs = dirs
		cells = append(cells, appCell(o, "exim", opts, kernel.PK(), max, false, apps.RunExim).
			cpu(max).as(fmt.Sprintf("dirs=%d", dirs), max))
	}
	o.sweepPoints(s, cells)
	return s
}

// runLockMgr sweeps PostgreSQL's lock-manager mutex count on the stock
// kernel with the read/write workload at 32 cores (past the stock peak,
// before the lseek wall).
func runLockMgr(o Options) *Series {
	cores := o.maxCores() / 2
	if cores < 1 {
		cores = 1
	}
	s := &Series{ID: "lockmgr",
		Title: fmt.Sprintf("PostgreSQL lock-manager mutexes (stock kernel, r/w, %d cores)", cores),
		Unit:  "q/s/core"}
	var cells []cell
	for _, n := range []int{1, 4, 16, 64, 1024} {
		opts := apps.DefaultPostgresOpts()
		opts.QueriesPerCore = scale(opts.QueriesPerCore, o.Quick)
		opts.WriteFraction = 0.05
		opts.LockMutexes = n
		cells = append(cells, appCell(o, "postgres", opts, kernel.Stock(), cores, false, apps.RunPostgres).
			cpu(cores).as(fmt.Sprintf("mutexes=%d", n), cores))
	}
	o.sweepPoints(s, cells)
	s.Notes = append(s.Notes,
		"More mutexes spread false contention; the full modPG also adds the lock-free fast path.")
	return s
}

// runSteering sweeps the flow-director misdirection probability for a
// short-connection workload. Every other PK fix is applied so kernel
// serialization does not mask the steering cost — this isolates what the
// sampling approach costs short connections (§4.2).
func runSteering(o Options) *Series {
	cores := 8
	if max := o.maxCores(); cores > max {
		cores = max
	}
	s := &Series{ID: "steering",
		Title: fmt.Sprintf("Flow-director misdirection (sampled steering, %d cores)", cores),
		Unit:  "req/s/core"}
	cfg := kernel.PK()
	cfg.ParallelAccept = false // sampled steering, shared backlog
	reqs := scale(150, o.Quick)
	var cells []cell
	for _, prob := range []float64{0.001, 0.2, 0.4, 0.6, 0.8} {
		cells = append(cells, o.newCell(spec{workload: "steering", opts: fmt.Sprintf("misdirect=%g,reqs=%d", prob, reqs),
			cfg: &cfg, cores: cores, domains: kernelDomains}, func(co Options, sp *spec) Point {
			k := co.boot(sp)
			netCfg := cfg.Net()
			netCfg.MisdirectProb = prob
			stack := netsim.NewStack(k.MD, k.FS, nil, k.DRAM, netCfg)
			k.FS.MustCreateFile("/www/f", 300)
			for c := 0; c < cores; c++ {
				k.Engine.Spawn(c, fmt.Sprintf("srv-%d", c), 0, func(p *sim.Proc) {
					l := stack.Listen(p)
					for i := 0; i < reqs; i++ {
						conn := stack.Accept(p, l)
						stack.Recv(p, conn, 120)
						f := k.FS.Open(p, "/www/f")
						k.FS.Read(p, f, 300)
						k.FS.Close(p, f)
						stack.Send(p, conn, 550)
						stack.CloseConn(p, conn)
						p.AdvanceUser(10_000)
					}
				})
			}
			k.Engine.Run()
			tput := float64(cores*reqs) / secsFor(k.Machine, k.Engine.Now()) / float64(cores)
			return Point{Cores: cores, PerCore: tput}
		}).as(fmt.Sprintf("misdirect=%.0f%%", prob*100), cores))
	}
	o.sweepPoints(s, cells)
	s.Notes = append(s.Notes,
		"Per-core backlog queues (PK) make steering exact and this sweep moot (§4.2).")
	return s
}

package harness

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/scount"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "tbl-hw",
		Title: "Machine memory-latency parameters",
		Paper: "§5.1: L1 3cy, L2 14cy, L3 28cy, DRAM 122..503cy",
		Run:   runHWLatencies,
	})

	register(Experiment{
		ID:    "fig2",
		Title: "Sloppy counter operation trace",
		Paper: "Figure 2: acquire/release against central vs per-core counts",
		Run:   runSloppyTrace,
	})

	register(Experiment{
		ID:    "dma",
		Title: "DMA buffer allocation ablation",
		Paper: "§5.3: local-node allocation improved throughput ~30% at 48 cores",
		Run:   runDMAAblation,
	})

	register(Experiment{
		ID:    "nic-env",
		Title: "UDP microbenchmark: NIC packet envelope",
		Paper: "§5.4: the card delivers a capped packet rate at high core counts",
		Run:   runNICEnvelope,
	})

	register(Experiment{
		ID:    "ablate",
		Title: "Per-fix ablations",
		Paper: "Figure 1: each fix applied alone to the most affected app at 48 cores",
		Run:   runAblations,
	})

	register(Experiment{
		ID:    "scount",
		Title: "Sloppy vs shared counter scalability (simulated)",
		Paper: "§4.3: a shared atomic serializes on one line; sloppy counters stay core-local",
		Run:   runScountSweep,
	})
}

// runHWLatencies measures the memory model's latencies with pointer-chase
// style probes and prints them next to the paper's numbers.
func runHWLatencies(o Options) *Series {
	s := &Series{ID: "tbl-hw", Title: "Memory latencies (§5.1)", Unit: "cycles"}
	max := o.maxCores()
	pts, errs := o.sweep(s, []cell{o.newCell(spec{workload: "latencies", cores: max, domains: memDomains}, func(co Options, sp *spec) Point {
		e, m := co.engine(sp)
		md := mem.NewModel(m)

		// The far probe reads from the chip at the machine's diameter
		// (chip 4 on the default ring); the sharer sits on the prober's
		// chip.
		farChip := 0
		for chip := 1; chip < m.Chips; chip++ {
			if m.HopDistance(0, chip) == m.MaxHops() {
				farChip = chip
				break
			}
		}
		lineLocal := md.Alloc(0)
		lineFar := md.Alloc(farChip)
		lineShared := md.Alloc(0)
		lineDirty := md.Alloc(0)

		e.Spawn(m.CoresPerChip-1, "warm-sharer", 0, func(p *sim.Proc) {
			p.Advance(md.Read(p.Core(), lineShared, p.Now()))
		})
		e.Spawn(m.NCores-1, "dirtier", 0, func(p *sim.Proc) {
			p.Advance(md.Write(p.Core(), lineDirty, p.Now()))
		})
		ms := []Metric{{"lat:l2/cy", float64(m.LatL2)}}
		e.Spawn(0, "prober", 1_000_000, func(p *sim.Proc) {
			for _, r := range []struct {
				metric string
				line   mem.Line
			}{
				{"lat:dram_local/cy", lineLocal}, {"lat:l1/cy", lineLocal}, {"lat:dram_far/cy", lineFar},
				{"lat:l3/cy", lineShared}, {"lat:remote_dirty/cy", lineDirty},
			} {
				cy := md.Read(p.Core(), r.line, p.Now())
				p.Advance(cy)
				ms = append(ms, Metric{r.metric, float64(cy)})
			}
		})
		e.Run()
		return Point{Cores: max, Metrics: ms}
	}).as("latencies", max)})
	if why := rowSkipReason(errs); why != "" {
		s.Notes = append(s.Notes, "memory latencies: skipped: "+why)
		return s
	}
	for _, r := range []struct{ metric, label, paper string }{
		{"lat:l1/cy", "L1 hit", "3"},
		{"lat:l2/cy", "L2 hit (model constant)", "14"},
		{"lat:l3/cy", "shared L3 hit (same chip)", "28"},
		{"lat:dram_local/cy", "local DRAM", "122"},
		{"lat:dram_far/cy", "farthest DRAM", "503"},
		{"lat:remote_dirty/cy", "remote dirty line fetch", "hundreds (§4.1)"},
	} {
		s.Notes = append(s.Notes, fmt.Sprintf("%-28s measured %4d cycles   paper %s",
			r.label, int64(pts[0].Metric(r.metric)), r.paper))
	}
	return s
}

// runSloppyTrace reproduces Figure 2's narrative: a thread takes a
// reference from the central counter, releases it locally, and a second
// acquire on the same core is satisfied without touching the central
// counter. A counter that breaks its invariant panics the cell, so the
// trace fails instead of printing.
func runSloppyTrace(o Options) *Series {
	s := &Series{ID: "fig2", Title: "Sloppy counter trace (Figure 2)"}
	pts, errs := o.sweep(s, []cell{o.newCell(spec{workload: "sloppy-trace", cores: 2, domains: kernelDomains}, func(co Options, sp *spec) Point {
		e, m := co.engine(sp)
		md := mem.NewModel(m)
		ctr := scount.NewSloppy(md, 0)
		var ms []Metric
		record := func(step string) {
			ms = append(ms, Metric{"trace:" + step + "/central_ops", float64(ctr.CentralOps())},
				Metric{"trace:" + step + "/local_ops", float64(ctr.LocalOps())})
		}
		e.Spawn(0, "core0", 0, func(p *sim.Proc) {
			ctr.Acquire(p, 1)
			record("acquire")
			p.Advance(1000)
			ctr.Release(p, 1)
			record("release")
			ctr.Acquire(p, 1)
			record("reacquire")
			ctr.Release(p, 1)
		})
		e.Run()
		if err := ctr.Check(); err != nil {
			panic("fig2: sloppy counter invariant violated: " + err.Error())
		}
		return Point{Cores: 2, Metrics: ms}
	}).as("trace", 2)})
	if why := rowSkipReason(errs); why != "" {
		s.Notes = append(s.Notes, "sloppy counter trace: skipped: "+why)
		return s
	}
	for _, st := range []struct{ step, note string }{
		{"acquire", "core 0 acquire: central ops=%d local ops=%d (first ref comes from the central counter)"},
		{"release", "core 0 release: central ops=%d local ops=%d (ref parked as a local spare)"},
		{"reacquire", "core 0 acquire: central ops=%d local ops=%d (spare reused without central traffic)"},
	} {
		s.Notes = append(s.Notes, fmt.Sprintf(st.note, int64(pts[0].Metric("trace:"+st.step+"/central_ops")),
			int64(pts[0].Metric("trace:"+st.step+"/local_ops"))))
	}
	s.Notes = append(s.Notes, "invariant holds: central == in-use + sum(per-core spares)")
	return s
}

// runDMAAblation compares node-0 vs local-node packet buffer allocation on
// the PK kernel at 48 cores, the §5.3 experiment (~30% improvement).
func runDMAAblation(o Options) *Series {
	s := &Series{ID: "dma", Title: "DMA buffer allocation (§5.3)", Unit: "req/s/core"}
	max := o.maxCores()
	// Keep the card in the loop, as the paper's measurement did; the NIC
	// envelope caps the achievable gain. The local-pools cell is PK itself,
	// so it is fig5's PK cell at the full machine.
	var cells []cell
	for i, label := range []string{"node-0 pool", "local pools"} {
		cfg := kernel.PK()
		cfg.LocalDMABuf = i == 1
		cells = append(cells, o.memcached(cfg, max).as(label, max))
	}
	pts, errs := o.sweepPoints(s, cells)
	if why := rowSkipReason(errs); why != "" {
		s.Notes = append(s.Notes, fmt.Sprintf("local-node allocation at %d cores: skipped: %s", max, why))
		return s
	}
	s.Notes = append(s.Notes, fmt.Sprintf(
		"local-node allocation improves %d-core throughput by %.0f%% (paper: ~30%%)",
		max, (pts[1].PerCore/pts[0].PerCore-1)*100))
	return s
}

// runNICEnvelope sweeps cores with the memcached NIC model and reports the
// aggregate packet rate the card sustains — the §5.4-style microbenchmark
// showing the device, not the kernel, caps delivery.
func runNICEnvelope(o Options) *Series {
	s := &Series{ID: "nic-env", Title: "NIC packet envelope (§5.4)", Unit: "Mpkt/s total"}
	// The aggregate rate is not recoverable bit for bit from fig5's per-core
	// column, so these cells measure it themselves under their own spec.
	o.sweepPoints(s, grid(o.cores(), []variantRun{{"UDP echo", func(c int) cell {
		pk, opts := kernel.PK(), o.memcachedOpts()
		return o.newCell(spec{workload: "memcached", measure: "pps", opts: fmt.Sprintf("%+v", opts),
			cfg: &pk, cores: c, domains: domainsFor("memcached")}, func(co Options, sp *spec) Point {
			r := apps.RunMemcached(co.boot(sp), opts)
			pps := r.Throughput() * 2 / 1e6 // one rx + one tx per request
			return Point{Cores: c, PerCore: pps}
		})
	}}}))
	s.Notes = append(s.Notes,
		"PerCore column holds aggregate Mpkt/s; the plateau past 16 cores is the card envelope")
	return s
}

// runScountSweep sweeps core counts with every core churning acquire and
// release pairs on one logical reference counter, comparing the stock
// shared atomic against the paper's sloppy counter (§4.3). Each point is
// an independent simulation, so the sweep fans out across workers.
func runScountSweep(o Options) *Series {
	s := &Series{ID: "scount", Title: "Reference counter scalability (§4.3)", Unit: "pairs/ms/core"}
	pairs := scale(400, o.Quick)
	churn := func(counter string, mk func(md *mem.Model) scount.Counter) variantRun {
		return variantRun{counter, func(cores int) cell {
			return o.newCell(spec{workload: "counter-churn", opts: fmt.Sprintf("counter=%s,pairs=%d", counter, pairs),
				cores: cores, domains: kernelDomains}, func(co Options, sp *spec) Point {
				e, m := co.engine(sp)
				ctr := mk(mem.NewModel(m))
				for c := 0; c < cores; c++ {
					e.Spawn(c, "churner", 0, func(p *sim.Proc) {
						for i := 0; i < pairs; i++ {
							ctr.Acquire(p, 1)
							p.AdvanceUser(150) // hold the reference briefly
							ctr.Release(p, 1)
						}
					})
				}
				e.Run()
				ms := microsFor(m, e.Now()) / 1e3
				return Point{
					Cores:      cores,
					PerCore:    float64(pairs) / ms,
					UserMicros: microsFor(m, e.TotalUserCycles()) / float64(pairs*cores),
					SysMicros:  microsFor(m, e.TotalSysCycles()) / float64(pairs*cores),
				}
			})
		}}
	}
	o.sweepPoints(s, grid(o.cores(), []variantRun{
		churn("Shared atomic", func(md *mem.Model) scount.Counter { return scount.NewShared(md, 0) }),
		churn("Sloppy", func(md *mem.Model) scount.Counter { return scount.NewSloppy(md, 0) }),
	}))
	s.Notes = append(s.Notes,
		"Shared collapses as every pair serializes on one line; Sloppy stays flat (core-local spares)")
	return s
}

// runAblations enables each Figure-1 fix alone on a stock kernel and runs
// the fix's most affected application at 48 cores, reporting the gain over
// stock — the evidence that each modeled fix does something.
func runAblations(o Options) *Series {
	max := o.maxCores()
	s := &Series{ID: "ablate", Title: fmt.Sprintf("Per-fix ablations at %d cores (Figure 1)", max)}

	// cellFor is the run that measures a fix: its most affected
	// application on cfg at the full machine, the same run the figures
	// make, so the stock baselines are fig4–fig8's stock cells and the
	// baselines several fixes share are one cell. Only the per-core
	// throughput enters the note.
	cellFor := func(name string, cfg kernel.Config) cell {
		switch name {
		case "parallel-accept":
			return o.apache(cfg, max)
		case "dst-ref", "proto-mem", "dma-buffers", "netdev-false-sharing",
			"inode-lists", "dcache-lists":
			return o.memcached(cfg, max)
		case "lseek-mutex":
			return o.postgres(cfg, max, 0, true)
		case "superpage-locking", "superpage-zeroing":
			return o.metis(cfg, true, max).scaled(3600)
		default: // page-false-sharing and the VFS fixes: Exim is the heaviest path-walk user
			return o.exim(cfg, max)
		}
	}

	// Each fix needs a baseline and a fix-enabled measurement.
	var cells []cell
	for _, f := range kernel.Fixes {
		fixed := kernel.Stock()
		f.Enable(&fixed)
		for _, v := range []struct {
			label string
			cfg   kernel.Config
		}{{f.Name + "/stock", kernel.Stock()}, {f.Name + "/fix", fixed}} {
			cells = append(cells, cellFor(f.Name, v.cfg).then(func(p Point) Point {
				return Point{Cores: max, PerCore: p.PerCore}
			}).as(v.label, max))
		}
	}
	pts, errs := o.sweep(s, cells)
	for i, f := range kernel.Fixes {
		if why := rowSkipReason(errs[i*2 : i*2+2]); why != "" {
			s.Notes = append(s.Notes, fmt.Sprintf("%-22s alone: skipped: %s", f.Name, why))
			continue
		}
		s.Notes = append(s.Notes, fmt.Sprintf("%-22s alone: %+6.1f%%  (apps: %s)",
			f.Name, (pts[i*2+1].PerCore/pts[i*2].PerCore-1)*100, f.Apps[0]))
	}
	return s
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/mosbench"
)

// runTraced is the child process of a traced repetition. It runs the
// workload's sweep with a span around each call into the harness (cache
// open, every experiment's Run, cache save), a CPU profile and runtime
// metrics around the sweep, and then replays the sweep's fig4 points one
// by one through the layer APIs (sim, kernel, apps), reading the counters
// those layers export. A replayed point that differs from the harness's
// makes the decomposition untrustworthy and is reported as a mismatch.
func runTraced(w workload, o mosbench.Options, cacheDir, traceDir string) (repResult, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return repResult{}, err
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d-pid%d", w.name, o.Seed, os.Getpid()))
	layer := map[string]float64{}

	var c *mosbench.Cache
	var fileKB, openS float64
	if cacheDir != "" {
		if st, err := os.Stat(filepath.Join(cacheDir, "points.json")); err == nil {
			fileKB = float64(st.Size()) / 1024
		}
		var err error
		openS = tr.do("harness.open_cache", func() { c, err = mosbench.OpenCache(cacheDir) }).Seconds()
		if err != nil {
			return repResult{}, err
		}
		o.Cache = c
	}
	layer["harness.cache_open_s"] = openS
	layer["harness.cache_file_kb"] = fileKB

	profPath := filepath.Join(traceDir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return repResult{}, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return repResult{}, err
	}
	rt := startRuntimeWatch()
	var exps []expResult
	var series []*mosbench.Series
	var saveS float64
	sweepS := tr.do("sweep", func() {
		exps, series, err = sweep(w, o, tr)
		if err == nil && c != nil {
			saveS = tr.do("harness.cache_save", func() { err = c.Save() }).Seconds()
		}
	}).Seconds()
	rt.stop(layer)
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return repResult{}, err
	}
	layer["harness.cache_save_s"] = saveS
	shares, samples, err := profileShares(profPath)
	if err != nil {
		return repResult{}, err
	}
	layer["profile.samples"] = float64(samples)
	for _, m := range profileModules {
		layer["profile."+m] = shares[m]
	}
	harnessMetrics(layer, tr, exps, series, c)

	var fig4 *mosbench.Series
	for _, s := range series {
		if s.ID == "fig4" {
			fig4 = s
		}
	}
	if fig4 == nil {
		return repResult{}, fmt.Errorf("workload %s ran no fig4 to replay", w.name)
	}
	rp := replayExim(tr, o.Seed, o.Quick)
	rp.metrics(layer, tr)
	mismatches := compareReplay(fig4, rp.points)

	if err := writeSpans(filepath.Join(traceDir, "spans.json"), tr, currentHost(o.Seed)); err != nil {
		return repResult{}, err
	}
	var replayS float64
	for _, d := range tr.durations("replay.point") {
		replayS += d.Seconds()
	}
	return repResult{
		SweepS:           sweepS,
		Exps:             exps,
		Layer:            layer,
		ReplayPointS:     replayS,
		ReplayMismatches: mismatches,
	}, nil
}

// harnessMetrics derives the harness-layer metrics (and the per-point
// mem/netsim/load maxima) from the sweep's spans, series and cache stats.
func harnessMetrics(layer map[string]float64, tr *tracer, exps []expResult, series []*mosbench.Series, c *mosbench.Cache) {
	var stats mosbench.CacheStats
	if c != nil {
		stats = c.Stats()
	}
	var points, failed int
	var expS []float64
	var uncachedS, uncachedN, replayS float64
	for _, e := range exps {
		points += e.Points
		failed += len(e.Failed)
		d := tr.durations("harness.run:" + e.ID)[0].Seconds()
		expS = append(expS, d)
		st := stats.Experiments[e.ID]
		switch {
		case st.Hits+st.Misses == 0:
			uncachedS += d
			uncachedN++
		case st.Misses == 0:
			replayS += d
		}
	}
	layer["harness.points"] = float64(points)
	layer["harness.points_failed"] = float64(failed)
	layer["harness.experiment_s.p50"] = median(expS)
	layer["harness.experiment_s.max"] = slices.Max(expS)
	layer["harness.uncached_s"] = uncachedS
	layer["harness.uncached_experiments"] = uncachedN
	layer["harness.replay_s"] = replayS
	layer["harness.cache_hits"] = float64(stats.Hits)
	layer["harness.cache_misses"] = float64(stats.Misses)
	layer["harness.cache_invalidated"] = float64(stats.Invalidated)
	layer["harness.cache_hit_ratio"] = ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses))

	var dram, link, retries, p99 float64
	goodput := math.Inf(1)
	for _, s := range series {
		for _, p := range s.Point {
			for _, u := range p.DRAMUtil {
				dram = math.Max(dram, u)
			}
			for _, u := range p.LinkUtil {
				link = math.Max(link, u)
			}
			retries = math.Max(retries, p.Retries)
			if p.OfferedPerCore > 0 {
				p99 = math.Max(p99, p.P99Micros)
				goodput = math.Min(goodput, p.PerCore/p.OfferedPerCore)
			}
		}
	}
	if math.IsInf(goodput, 1) {
		goodput = 0 // no open-loop point in this workload
	}
	layer["mem.dram_util_max"] = dram
	layer["mem.link_util_max"] = link
	layer["netsim.retries_per_op.max"] = retries
	layer["load.p99_us.max"] = p99
	layer["load.goodput_ratio.min"] = goodput
}

// eximVariants are fig4's curves, in the harness's order.
var eximVariants = []struct {
	name string
	cfg  kernel.Config
}{{"Stock", kernel.Stock()}, {"PK", kernel.PK()}}

// replay holds the fig4 points recomputed through the layer APIs and the
// layer counters read after each.
type replay struct {
	points                      []mosbench.Point
	virtual, busy               int64
	parked                      int
	ops, sysCycles              int64
	reads, writes, remote       int64
	mountLookups, mountHits     int64
	lockAcquired, lockContended int64
}

// replayExim recomputes every fig4 (variant, cores) point the way the
// harness does: one pooled engine, and per point ResetFor,
// kernel.NewOnEngine and apps.RunExim, each inside its own span.
func replayExim(tr *tracer, seed uint64, quick bool) replay {
	if seed == 0 {
		seed = 1 // the harness's default seed
	}
	cores := harness.DefaultCores
	opts := apps.DefaultEximOpts()
	if quick {
		cores = harness.QuickCores
		// The harness's quick budget: a quarter, at least 5.
		opts.MessagesPerCore = max(opts.MessagesPerCore/4, 5)
	}
	m := topo.Default()
	var e *sim.Engine
	tr.do("sim.new_pooled_engine", func() { e = sim.NewPooledEngine(m.WithCores(cores[0]), seed) })
	defer e.Close()

	var rp replay
	for _, v := range eximVariants {
		for _, n := range cores {
			var k *kernel.Kernel
			var r apps.Result
			tr.do("replay.point", func() {
				mc := m.WithCores(n)
				tr.do("sim.reset", func() { e.ResetFor(mc, seed) })
				tr.do("kernel.boot", func() { k = kernel.NewOnEngine(e, v.cfg) })
				tr.do("apps.run", func() { r = apps.RunExim(k, opts) })
			})
			rp.points = append(rp.points, mosbench.Point{
				Cores: r.Cores, Variant: v.name, PerCore: r.PerCore(),
				UserMicros: r.UserMicrosPerOp(), SysMicros: r.SysMicrosPerOp(),
				DRAMUtil: r.DRAMUtil, LinkUtil: r.LinkUtil,
				Retries: r.RetriesPerOp(), Dups: r.DupsPerOp(), OfferedPerCore: r.OfferedPerCore,
				P50Micros: r.SojournMicros(0.50), P99Micros: r.SojournMicros(0.99), P999Micros: r.SojournMicros(0.999),
			})
			rp.virtual += e.Now()
			rp.busy += e.TotalUserCycles() + e.TotalSysCycles()
			rp.parked = max(rp.parked, e.NumParked())
			rp.ops += r.Ops
			rp.sysCycles += r.SysCycles
			rp.reads += k.MD.Reads()
			rp.writes += k.MD.Writes()
			rp.remote += k.MD.RemoteTransfers()
			rp.mountLookups += k.FS.MountTable().Lookups()
			rp.mountHits += k.FS.MountTable().CacheHits()
			for _, l := range []interface {
				Acquisitions() int64
				Contended() int64
			}{k.FS.DcacheLock(), k.FS.InodeLock(), k.FS.SuperBlock().Lock()} {
				rp.lockAcquired += l.Acquisitions()
				rp.lockContended += l.Contended()
			}
		}
	}
	return rp
}

// metrics adds the sim, kernel, apps, mem, vfs and slock metrics of the
// replay to layer.
func (rp replay) metrics(layer map[string]float64, tr *tracer) {
	us := func(name string) []float64 {
		var out []float64
		for _, d := range tr.durations(name) {
			out = append(out, float64(d.Nanoseconds())/1e3)
		}
		return out
	}
	runUS := us("apps.run")
	var runS float64
	var runMS []float64
	for _, u := range runUS {
		runS += u / 1e6
		runMS = append(runMS, u/1e3)
	}
	layer["sim.engine_reset_us.p50"] = median(us("sim.reset"))
	layer["sim.virtual_mcycles"] = float64(rp.virtual) / 1e6
	layer["sim.busy_mcycles"] = float64(rp.busy) / 1e6
	layer["sim.host_ns_per_kcycle"] = ratio(runS*1e9, float64(rp.busy)/1e3)
	layer["sim.parked_procs"] = float64(rp.parked)
	layer["kernel.boot_us.p50"] = median(us("kernel.boot"))
	layer["apps.run_ms.p50"] = median(runMS)
	layer["apps.run_ms.n"] = float64(len(runMS))
	layer["apps.run_s"] = runS
	layer["apps.ops"] = float64(rp.ops)
	layer["apps.sys_frac"] = ratio(float64(rp.sysCycles), float64(rp.busy))
	layer["mem.reads"] = float64(rp.reads)
	layer["mem.writes"] = float64(rp.writes)
	layer["mem.remote_ratio"] = ratio(float64(rp.remote), float64(rp.reads+rp.writes))
	layer["vfs.mount_lookups"] = float64(rp.mountLookups)
	layer["vfs.mount_hit_ratio"] = ratio(float64(rp.mountHits), float64(rp.mountLookups))
	layer["slock.acquisitions"] = float64(rp.lockAcquired)
	layer["slock.contended_ratio"] = ratio(float64(rp.lockContended), float64(rp.lockAcquired))
}

// compareReplay returns one line per replayed point that the harness's
// series lacks or holds with a different value.
func compareReplay(s *mosbench.Series, replayed []mosbench.Point) []string {
	var out []string
	if len(replayed) != len(s.Point) {
		out = append(out, fmt.Sprintf("replayed %d points, harness produced %d", len(replayed), len(s.Point)))
	}
	for _, r := range replayed {
		h, ok := s.Get(r.Variant, r.Cores)
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s@%d: missing from the harness series", r.Variant, r.Cores))
		case !samePoint(h, r):
			out = append(out, fmt.Sprintf("%s@%d: harness %+v, replay %+v", r.Variant, r.Cores, h, r))
		}
	}
	return out
}

// samePoint compares every field exactly; a nil and an empty utilization
// vector are equal, as they render to the same CSV.
func samePoint(a, b mosbench.Point) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return a.Cores == b.Cores && a.Variant == b.Variant && a.PerCore == b.PerCore &&
		a.UserMicros == b.UserMicros && a.SysMicros == b.SysMicros &&
		eq(a.DRAMUtil, b.DRAMUtil) && eq(a.LinkUtil, b.LinkUtil) &&
		a.Retries == b.Retries && a.Dups == b.Dups && a.OfferedPerCore == b.OfferedPerCore &&
		a.P50Micros == b.P50Micros && a.P99Micros == b.P99Micros && a.P999Micros == b.P999Micros
}

// runtimeWatch reads runtime/metrics around the sweep and samples the
// goroutine count while it runs.
type runtimeWatch struct {
	before     []metrics.Sample
	done       chan struct{}
	wg         sync.WaitGroup
	goroutines uint64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntimeWatch() *runtimeWatch {
	w := &runtimeWatch{before: readRuntime(), done: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		s := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			w.goroutines = max(w.goroutines, s[0].Value.Uint64())
			select {
			case <-w.done:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the sampling and adds the runtime metrics to layer.
func (w *runtimeWatch) stop(layer map[string]float64) {
	after := readRuntime()
	close(w.done)
	w.wg.Wait()
	layer["runtime.gc_cycles"] = float64(after[0].Value.Uint64() - w.before[0].Value.Uint64())
	layer["runtime.alloc_mb"] = float64(after[1].Value.Uint64()-w.before[1].Value.Uint64()) / (1 << 20)
	layer["runtime.goroutines_max"] = float64(w.goroutines)
	layer["runtime.sched_latency_p90_us"] = histDeltaQuantile(w.before[2].Value.Float64Histogram(), after[2].Value.Float64Histogram(), 0.9) * 1e6
}

// histDeltaQuantile returns the q-quantile of the observations a
// cumulative histogram gained between two reads, as the upper edge of the
// bucket it falls in (the lower edge for the unbounded last bucket).
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range delta {
		seen += n
		if seen >= target {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// writeSpans writes the run's spans, with their self times, as JSON.
func writeSpans(path string, tr *tracer, host hostInfo) error {
	type out struct {
		Run   string      `json:"run"`
		Host  hostInfo    `json:"host"`
		Spans []span      `json:"spans"`
		Names []nameTotal `json:"by_name"`
	}
	data, err := json.MarshalIndent(out{Run: tr.run, Host: host, Spans: tr.spans, Names: selfByName(tr.spans)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

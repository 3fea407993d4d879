package harness

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/load"
)

// latloadQuickCores is the reduced core count quick runs sweep load at;
// full runs use the whole machine (the degrade precedent).
const latloadQuickCores = 8

// defaultShed is the admission policy the "PK shed" variant uses when
// the run supplies no -shed spec: a delay-bounded accept queue whose
// budget keeps the worst queueing delay under the client's first
// retransmission timeout — the entire point of early shedding. A
// count-bounded queue cannot promise that across core counts: the same
// 32-deep queue that absorbs bursts at 8 cores holds enough work at 48
// cores (where contention inflates per-request service time) to push
// waits past the timeout and ignite the retry storm behind the bound.
func defaultShed() *load.ShedSpec {
	return &load.ShedSpec{DelayCycles: load.DefaultShedDelayCycles}
}

// latloadMults is the offered-load sweep in percent of the calibrated
// saturation rate: below the knee, at it, and well into overload.
var (
	latloadMults      = []int{25, 50, 75, 100, 125, 150, 175, 200}
	latloadQuickMults = []int{50, 100, 200}
)

func init() {
	register(Experiment{
		ID:    "latload",
		Title: "Latency and goodput vs offered load (memcached open-loop)",
		Paper: "Robustness extension (not a paper figure): open-loop tail latency and the overload region the closed-loop figures cannot show",
		Run:   runLatload,
	})
}

// openLoop is the options of one open-loop memcached run.
type openLoop struct {
	Memcached apps.MemcachedOpts
	OpenLoop  apps.OpenLoopOpts
}

// memcachedOpenLoop is the cell for one open-loop memcached run on cfg at
// loadPercent of the calibrated saturation rate, under o's arrival and
// link specs and its shed policy. Its results depend on the client retry
// policy and the open-loop load model in addition to the usual memcached
// stack.
func (o Options) memcachedOpenLoop(cfg kernel.Config, cores, loadPercent int) cell {
	opts := openLoop{apps.DefaultMemcachedOpts(), apps.OpenLoopOpts{
		Arrival:              o.Arrival,
		Link:                 o.Link,
		Shed:                 o.Shed,
		LoadPercent:          loadPercent,
		RequestsPerCore:      scale(load.DefaultRequestsPerCore, o.Quick),
		CalibRequestsPerCore: scale(load.DefaultCalibRequestsPerCore, o.Quick),
	}}
	return o.newCell(spec{workload: "memcached-openloop", opts: fmt.Sprintf("%+v", opts), cfg: &cfg, cores: cores,
		domains: append(domainsFor("memcached"), "fault", "load")}, func(co Options, sp *spec) Point {
		return point(apps.RunMemcachedOpenLoop(co.boot(sp), opts.Memcached, opts.OpenLoop))
	})
}

// runLatload sweeps offered load at a fixed core count on the PK kernel:
// each point calibrates the configuration's saturation rate closed-loop,
// then offers that rate scaled by the point's multiplier through the
// open-loop driver. Two admission policies make the overload-policy
// comparison: a bounded accept queue that sheds early ("PK shed") and
// the unbounded FIFO every closed-loop figure implicitly assumes
// ("PK fifo"). The Cores column carries the offered-load percent (the
// degrade experiment's severity-in-the-cores-column precedent).
func runLatload(o Options) *Series {
	m := o.machine()
	cores := m.MaxCores()
	mults := latloadMults
	if o.Quick {
		if latloadQuickCores < cores {
			cores = latloadQuickCores
		}
		mults = latloadQuickMults
	}
	shed := o.Shed
	if shed == nil {
		shed = defaultShed()
	}

	s := &Series{
		ID: "latload",
		Title: fmt.Sprintf("Latency vs offered load at %d cores, arrival %s, link %s, shed %s",
			cores, o.Arrival.String(), o.Link.String(), shed),
		Unit: "req/s/core",
	}
	// The load multiplier is the cells' axis, like degrade's fault
	// severity; each run pins the real core count itself.
	variants := []struct {
		name string
		shed *load.ShedSpec
	}{{"PK shed", shed}, {"PK fifo", nil}}
	var runs []variantRun
	for _, v := range variants {
		so := o
		so.Shed = v.shed
		runs = append(runs, variantRun{v.name, func(mult int) cell {
			return so.memcachedOpenLoop(kernel.PK(), cores, mult).then(func(p Point) Point {
				p.Cores = mult // offered-load percent, the series' x-axis
				return p
			})
		}})
	}
	o.sweepPoints(s, grid(mults, runs))

	s.Notes = append(s.Notes,
		fmt.Sprintf("cores column = offered load (%% of calibrated saturation) at a fixed %d cores", cores))
	for _, v := range s.Variants() {
		peak := 0.0
		for _, mult := range mults {
			if p, ok := s.Get(v, mult); ok && p.PerCore > peak {
				peak = p.PerCore
			}
		}
		if peak <= 0 {
			continue
		}
		for _, mult := range mults {
			p, ok := s.Get(v, mult)
			if !ok {
				continue
			}
			delivered := 0.0
			if p.OfferedPerCore > 0 {
				delivered = p.PerCore / p.OfferedPerCore
			}
			tail := 0.0
			if p.P50Micros > 0 {
				tail = p.P99Micros / p.P50Micros
			}
			s.Notes = append(s.Notes, fmt.Sprintf(
				"  %-8s @%3d%%: goodput/peak %.2f, delivered %.2f, p99/p50 %.1f, %.3f retries/op, %.3f dups/op",
				v, mult, p.PerCore/peak, delivered, tail, p.Retries, p.Dups))
		}
	}
	return s
}

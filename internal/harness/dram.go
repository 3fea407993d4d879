package harness

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "dram",
		Title: "Per-chip DRAM controllers: local vs striped vs remote placement",
		Paper: "§5.8: DRAM saturation is per memory controller, not one machine-wide envelope",
		Run:   runDRAMPlacement,
	})
	register(Experiment{
		ID:    "ht",
		Title: "Finite-rate HyperTransport links: placement moves saturation between controllers and links",
		Paper: "§5.1/§5.8: remote and striped traffic shares finite interconnect paths, so placement changes link load",
		Run:   runHTPlacement,
	})
}

// placementVariants are the policies both placement experiments sweep. The
// labels predate the shared mem.Placement type and are kept stable for
// downstream parsers.
var placementVariants = []struct {
	name string
	pl   mem.Placement
}{
	{"local", mem.Placement{}},
	{"striped", mem.Placement{Kind: mem.PlaceStriped}},
	{"remote (node 0)", mem.PlacementHome(0)},
}

// placementCell streams streamBytes from every active core under o's
// placement policy and reports per-chip controller and per-link HT
// utilization. Streaming happens in chunks so concurrent demand
// interleaves at the controllers and links the way real streaming does,
// instead of as one monolithic reservation.
func (o Options) placementCell(cores int, streamBytes int64) cell {
	const chunks = 8
	return o.newCell(spec{workload: "stream", opts: fmt.Sprintf("bytes=%d,chunks=%d", streamBytes, chunks),
		cores: cores, domains: memDomains}, func(co Options, sp *spec) Point {
		e, m := co.engine(sp)
		cs := mem.NewControllersFor(m)
		for c := 0; c < cores; c++ {
			e.Spawn(c, fmt.Sprintf("stream-%d", c), 0, func(p *sim.Proc) {
				for i := 0; i < chunks; i++ {
					cs.TransferPlaced(p, sp.placement, streamBytes/chunks)
				}
			})
		}
		e.Run()
		gb := float64(streamBytes) / (1 << 30)
		return Point{
			Cores:    cores,
			PerCore:  gb / secsFor(m, e.Now()),
			DRAMUtil: cs.Utilization(e.Now()),
			LinkUtil: cs.LinkUtilization(e.Now()),
		}
	})
}

// runPlacementSweep streams bulk data from every active core under each
// placement policy and collects both utilization columns. The dram and ht
// experiments are the same sweep read against different columns: they
// share this body and its specs, so whichever runs second is served from
// the cache, and differ only in framing.
func runPlacementSweep(o Options, id, title string, notes []string) *Series {
	s := &Series{ID: id, Title: title, Unit: "GB/s/core"}
	streamBytes := int64(64 << 20)
	if o.Quick {
		streamBytes >>= 2
	}
	var runs []variantRun
	for _, v := range placementVariants {
		runs = append(runs, variantRun{v.name, func(c int) cell {
			so := o
			so.Placement = v.pl
			return so.placementCell(c, streamBytes)
		}})
	}
	o.sweepPoints(s, grid(o.cores(), runs))
	s.Notes = append(s.Notes, notes...)
	return s
}

// runDRAMPlacement reads the placement sweep against the controller
// column. Local placement scales with the populated chips; striping
// shares every controller (and pays hop latency); homing all data on chip
// 0 saturates that one controller while the other seven idle — the
// per-chip localization the memory-system refactor exists to show.
func runDRAMPlacement(o Options) *Series {
	return runPlacementSweep(o, "dram", "DRAM placement sweep (per-chip controllers)", []string{
		"local: each chip's controller serves only its own cores; populated chips saturate independently",
		"striped: every controller shares the load; cross-chip slices pay HyperTransport hop latency",
		"remote (node 0): chip 0's controller saturates while the other seven sit idle",
	})
}

// runHTPlacement is the interconnect half of the placement story: the
// same sweep, read against the link_util column. Local placement never
// touches a link; striping pushes every slice's bytes across its route,
// pinning the busiest links at ~1.00 while the controllers sit well below
// half load — the interconnect, not the DRAM, is the bottleneck the
// placement policy creates.
func runHTPlacement(o Options) *Series {
	return runPlacementSweep(o, "ht", "HyperTransport link saturation sweep (placement policies)", []string{
		"local: zero link traffic; only the populated chips' controllers work",
		"striped: 7/8 of every stream crosses links (avg ~2.3 hops); the links saturate before any controller reaches half load",
		"remote (node 0): the links feeding chip 0 carry everything, behind chip 0's saturated controller",
	})
}

package harness

import (
	"strings"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/fprint"
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/mem"
	"repro/internal/topo"
)

// costDomains maps each cost-model domain a spec can declare to the
// fingerprint of that domain's current constants. The sweep-point cache
// files every spec's point in the section of its declared domains, stamped
// with their combined fingerprint, so retuning one domain's constants
// invalidates exactly the cells that depend on it: a memcached retune
// leaves every cached Exim, PostgreSQL, ... cell replayable, in whichever
// experiment it appears.
//
// Tests swap entries here (and restore them) to simulate a retune without
// editing constants.
var costDomains = func() map[string]string {
	d := map[string]string{
		"topo":   topo.Fingerprint(),
		"mem":    mem.Fingerprint(),
		"kernel": kernel.Fingerprint(),
		"fault":  fault.Fingerprint(),
		"load":   load.Fingerprint(),
	}
	for app, fp := range apps.Fingerprints() {
		d["apps/"+app] = fp
	}
	return d
}()

// fingerprintFor returns the combined cost-model fingerprint of the cache
// section with the given ID: a canonical digest of the fingerprints of the
// domains the ID lists, joined by "+" (see spec's section).
//
// A section ID may carry an "@machine" suffix: the machine-dependent
// domains ("topo", "mem") are then taken from that machine's description
// instead of the default's, and the machine name is folded in, so every
// simulated host is its own cacheable cost domain.
func fingerprintFor(id string) string {
	domains, machineName, _ := strings.Cut(id, "@")
	var m *topo.Machine
	if machineName != "" {
		// An unregistered name (a profile removed between runs) keeps the
		// default fingerprints; the machine-name term below still keeps the
		// section distinct from every other machine's.
		m, _ = topo.Lookup(machineName)
	}
	f := fprint.New("section")
	for _, d := range strings.Split(domains, "+") {
		fp := costDomains[d]
		if m != nil {
			switch d {
			case "topo":
				fp = m.Fingerprint()
			case "mem":
				fp = mem.FingerprintFor(m)
			}
		}
		f.C(d, fp)
	}
	if machineName != "" {
		f.C("machine", machineName)
	}
	return f.Sum()
}

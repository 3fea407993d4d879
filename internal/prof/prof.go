// Package prof collects the contention statistics the paper's analysis
// methodology relies on: which locks are waited on and which cache lines
// are fought over. The authors found each bottleneck by exactly this kind
// of measurement ("Once we identified a bottleneck, it typically required
// little work to remove or avoid it", §1); the profiler makes the
// reproduction's bottlenecks observable the same way.
package prof

import (
	"fmt"
	"sort"
	"strings"
)

// LockStats accumulates per-lock contention counters. Lock implementations
// update the fields directly; the registry only aggregates and reports.
type LockStats struct {
	// Name identifies the lock (e.g. "vfsmount_lock").
	Name string
	// Acquisitions counts every acquire.
	Acquisitions int64
	// Contended counts acquires that had to wait.
	Contended int64
	// WaitCycles accumulates total cycles spent waiting.
	WaitCycles int64
}

// LineStats accumulates per-cache-line coherence traffic for labeled lines.
type LineStats struct {
	// Name identifies the line (e.g. "dst_entry.refcnt").
	Name string
	// Writes counts modifications.
	Writes int64
	// WaitCycles accumulates cycles ops spent queued behind the line's
	// in-flight transfers.
	WaitCycles int64
}

// Registry owns all stats for one simulated machine.
type Registry struct {
	locks []*LockStats
	lines []*LineStats
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Lock registers and returns a stats record for a named lock.
func (r *Registry) Lock(name string) *LockStats {
	s := &LockStats{Name: name}
	r.locks = append(r.locks, s)
	return s
}

// Line registers and returns a stats record for a named cache line.
func (r *Registry) Line(name string) *LineStats {
	s := &LineStats{Name: name}
	r.lines = append(r.lines, s)
	return s
}

// TopLocks returns up to n locks ordered by wait cycles (descending),
// aggregated by name (per-core lock instances share a logical name).
func (r *Registry) TopLocks(n int) []LockStats {
	agg := map[string]*LockStats{}
	for _, s := range r.locks {
		name := logicalName(s.Name)
		a, ok := agg[name]
		if !ok {
			a = &LockStats{Name: name}
			agg[name] = a
		}
		a.Acquisitions += s.Acquisitions
		a.Contended += s.Contended
		a.WaitCycles += s.WaitCycles
	}
	out := make([]LockStats, 0, len(agg))
	for _, a := range agg {
		if a.Acquisitions > 0 {
			out = append(out, *a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitCycles != out[j].WaitCycles {
			return out[i].WaitCycles > out[j].WaitCycles
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TopLines returns up to n labeled lines ordered by wait cycles.
func (r *Registry) TopLines(n int) []LineStats {
	out := make([]LineStats, 0, len(r.lines))
	for _, s := range r.lines {
		if s.Writes > 0 {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitCycles != out[j].WaitCycles {
			return out[i].WaitCycles > out[j].WaitCycles
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// logicalName strips per-instance suffixes like "-cpu7" or ":filename" so
// per-core lock arrays aggregate into one row.
func logicalName(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[:i]
	}
	if i := strings.LastIndex(name, "-cpu"); i >= 0 {
		name = name[:i] + "-cpu*"
	}
	if i := strings.LastIndex(name, "-node"); i >= 0 {
		name = name[:i] + "-node*"
	}
	return name
}

// Report renders the contention profile of the top topN locks and lines.
func (r *Registry) Report(topN int) string {
	return Render(r.TopLocks(topN), r.TopLines(topN))
}

// Render renders ranked lock and line statistics (as TopLocks and
// TopLines return them) as a human-readable contention profile.
func Render(locks []LockStats, lines []LineStats) string {
	var b strings.Builder
	b.WriteString("lock contention (by wait cycles):\n")
	if len(locks) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, s := range locks {
		pct := 0.0
		if s.Acquisitions > 0 {
			pct = 100 * float64(s.Contended) / float64(s.Acquisitions)
		}
		fmt.Fprintf(&b, "  %-24s %12d wait cy   %9d acq   %5.1f%% contended\n",
			s.Name, s.WaitCycles, s.Acquisitions, pct)
	}
	if len(lines) > 0 {
		b.WriteString("hot cache lines (by transfer-queue cycles):\n")
		for _, s := range lines {
			fmt.Fprintf(&b, "  %-24s %12d wait cy   %9d writes\n",
				s.Name, s.WaitCycles, s.Writes)
		}
	}
	return b.String()
}

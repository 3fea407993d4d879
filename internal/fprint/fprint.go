// Package fprint builds canonical fingerprints of cost-model constants.
//
// Every cost-bearing package (topo's latencies and bandwidths, mem's
// coherence charges, the kernel subsystems' per-operation work constants,
// each application's tuning constants) exports a fingerprint of the
// constants its simulated costs depend on. The sweep-point cache stores
// each experiment's points under the combined fingerprint of the domains
// the experiment declares, so retuning one constant invalidates exactly
// the experiments whose results could have changed — never the whole
// cache.
//
// A fingerprint is a short hex digest of "name=value" pairs sorted by
// name, so it is independent of declaration order and stable across
// builds and machines as long as the values themselves are unchanged.
// Fingerprints compose: a package that assembles others (kernel, the
// harness's per-section combination) records their fingerprints as
// values of its own.
package fprint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// F accumulates named constants for one fingerprint domain.
type F struct {
	domain  string
	entries []string
}

// New starts a fingerprint for the named domain. The domain name is part
// of the digest, so equal constant sets in different packages still
// produce distinct fingerprints.
func New(domain string) *F {
	return &F{domain: domain}
}

// C records one named constant (or a sub-domain's fingerprint) and
// returns f for chaining. Values are rendered with %v: for the integer,
// float, bool, and string constants the cost models use, that rendering
// is deterministic.
func (f *F) C(name string, value any) *F {
	f.entries = append(f.entries, fmt.Sprintf("%s=%v", name, value))
	return f
}

// Sum returns the canonical fingerprint: a 16-hex-character digest of the
// domain name and the sorted entries.
func (f *F) Sum() string {
	entries := append([]string(nil), f.entries...)
	sort.Strings(entries)
	h := sha256.New()
	fmt.Fprintf(h, "%s|", f.domain)
	for _, e := range entries {
		fmt.Fprintf(h, "%s|", e)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

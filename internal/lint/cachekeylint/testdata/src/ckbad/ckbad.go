// Package harness (fixture) exercises cachekeylint: one field folded
// into newSpec directly, one through a helper, one forgotten (the
// diagnostic), and one annotated as key-exempt.
package harness

import "fmt"

type Options struct {
	Machine string
	Seed    int64
	Secret  int  // want "Options.Secret is not folded into the sweep cache key"
	Debug   bool //mosvet:allow cachekeylint display-only: changes logging, never the simulated point
}

// seed is a helper on the cache-key path: fields it reads count as
// folded in.
func (o *Options) seed() int64 { return o.Seed }

type spec struct{ key string }

func (o *Options) newSpec(sp spec) spec {
	sp.key += fmt.Sprintf("|%s|%d", o.Machine, o.seed())
	return sp
}

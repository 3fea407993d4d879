package load

import (
	"fmt"
	"testing"
)

// fixedPoint checks that parse never panics on in and that a parsed spec's
// String is a fixed point of parse→print: the sweep keys cells on that
// string, so a spec whose canonical form re-parses differently (or not at
// all) would split equal specs across cache entries or fail every point.
func fixedPoint[S fmt.Stringer](t *testing.T, parse func(string) (S, error), in string) {
	spec, err := parse(in)
	if err != nil {
		return
	}
	canon := spec.String()
	again, err := parse(canon)
	if err != nil {
		t.Fatalf("parse(%q) renders %q, which does not parse: %v", in, canon, err)
	}
	if got := again.String(); got != canon {
		t.Fatalf("parse(%q) renders %q, which re-renders as %q", in, canon, got)
	}
}

func FuzzArrivalSpec(f *testing.F) {
	for _, s := range []string{"", "none", "poisson", "poisson:users=5000", "pareto", "pareto:alpha=1.2,users=100"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) { fixedPoint(t, ParseArrival, in) })
}

func FuzzLinkSpec(f *testing.F) {
	for _, s := range []string{"", "none", "rtt=20ms±5", "rtt=20ms+-5ms", "rtt=200us±100,loss=0.5%", "bw=10mbit", "loss=0.1%"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) { fixedPoint(t, ParseLink, in) })
}

func FuzzShedSpec(f *testing.F) {
	for _, s := range []string{"", "fifo", "qlen=16", "delay=100us", "delay=1ms"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) { fixedPoint(t, ParseShed, in) })
}

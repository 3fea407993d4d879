package fault

import "testing"

// FuzzFaultSpec: Parse never panics, and a parsed spec's String is a fixed
// point of parse→print. The sweep keys cells on that string, so a spec
// whose canonical form re-parses differently (or not at all) would split
// equal plans across cache entries or fail every point it reaches.
func FuzzFaultSpec(f *testing.F) {
	for _, s := range []string{
		"", "none", "link:3-4@50%", "link:0-7@down", "dram:2@50%@t=1ms", "core:7@off",
		"drop:0.01,dup:0.002", "link:0-1@50%,link:4-5@50%,dram:0@50%,drop:0.02", "link:0--1@0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := Parse(in)
		if err != nil {
			return
		}
		canon := spec.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", in, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse(%q) renders %q, which re-renders as %q", in, canon, got)
		}
	})
}

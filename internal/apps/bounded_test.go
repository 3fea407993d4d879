package apps

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/topo"
)

// TestEximDirectoryIsBounded pins coherence-line recycling end to end:
// every object Exim creates per message or per connection (forked
// processes, spool files, loopback sockets) gives its lines back, so the
// directory does not grow with the message count. Doubling the messages
// per core must leave the live line count at the end of the run exactly
// unchanged (what remains is boot and setup state) and the directory's
// high-water mark within a small slack; a full-size 48-core point must
// stay in the tens of thousands of lines (it reached 315,221 before lines
// could be freed). The end-of-run count is the sharp check: the peak is
// set while all cores start their first connection in step, so a small
// per-connection leak does not move it.
func TestEximDirectoryIsBounded(t *testing.T) {
	const n = 10
	run := func(cfg kernel.Config, msgs int) (peak, live int) {
		k := kernel.New(topo.New(48), cfg, 1)
		opts := DefaultEximOpts()
		opts.MessagesPerCore = msgs
		RunExim(k, opts)
		return k.MD.NumLines(), k.MD.LiveLines()
	}
	for _, tc := range []struct {
		name string
		cfg  kernel.Config
	}{{"stock", kernel.Stock()}, {"pk", kernel.PK()}} {
		peak, live := run(tc.cfg, n)
		peak2, live2 := run(tc.cfg, 2*n)
		if live2 != live {
			t.Errorf("%s: %d lines live after %d messages per core, %d after %d: lines leak",
				tc.name, live, n, live2, 2*n)
		}
		if slack := peak / 100; peak2 > peak+slack {
			t.Errorf("%s: directory peaked at %d lines with %d messages per core, %d with %d (slack %d)",
				tc.name, peak, n, peak2, 2*n, slack)
		}
		if full, _ := run(tc.cfg, DefaultEximOpts().MessagesPerCore); full >= 50_000 {
			t.Errorf("%s: a full 48-core point peaked at %d lines, want tens of thousands", tc.name, full)
		}
	}
}

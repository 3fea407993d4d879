package sim

import (
	"strings"
	"testing"

	"repro/internal/topo"
)

// deadlockOnResource drives e into a deadlock with procs parked at
// different depths of a shared Resource queue: every proc serializes
// through the device (the shape mem.Link/DRAM queues have) and then
// blocks forever. Run must panic with the deadlock report; the recovered
// panic is returned.
func deadlockOnResource(t *testing.T, e *Engine) (msg string) {
	t.Helper()
	dev := NewResource("dev")
	for c := 0; c < e.Machine.NCores; c++ {
		e.Spawn(c, "wedged", int64(c), func(p *Proc) {
			dev.Use(p, 1000) // queue behind every earlier proc
			p.Advance(10)
			p.Block() // nobody will ever Wake us
		})
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on an all-blocked engine")
		}
		msg = r.(string)
	}()
	e.Run()
	return ""
}

// TestResetAfterResourceQueueDeadlock is the crash-isolation contract the
// harness watchdog/retry path relies on: an engine whose previous run
// deadlocked with procs parked inside Resource queues must, after Reset,
// replay a clean scenario bit-for-bit identically to a fresh engine.
func TestResetAfterResourceQueueDeadlock(t *testing.T) {
	fresh := traceRun(NewEngine(topo.New(4), 42))

	e := NewPooledEngine(topo.New(4), 7)
	msg := deadlockOnResource(t, e)
	if !strings.Contains(msg, "deadlock") {
		t.Fatalf("panic %q does not report a deadlock", msg)
	}
	if !strings.Contains(msg, "wedged") {
		t.Fatalf("deadlock report %q does not name the blocked procs", msg)
	}

	e.ResetFor(topo.New(4), 42)
	reused := traceRun(e)
	if len(fresh) != len(reused) {
		t.Fatalf("fresh run has %d events, post-deadlock reused run %d", len(fresh), len(reused))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("runs diverged at event %d: fresh %d, reused %d", i, fresh[i], reused[i])
		}
	}

	// A second deadlock and reset must work just as well: the free list
	// reclaims the re-parked coroutines every time.
	deadlockOnResource(t, e)
	e.ResetFor(topo.New(4), 42)
	again := traceRun(e)
	for i := range fresh {
		if fresh[i] != again[i] {
			t.Fatalf("second recovery diverged at event %d: fresh %d, reused %d", i, fresh[i], again[i])
		}
	}
	e.Close()
}

package sim

import (
	"runtime"
	"testing"

	"repro/internal/topo"
)

// panicMidRun spawns a small contended scenario on e in which one proc's
// body panics while the others are parked at every kind of suspension
// point (blocked, requeued, never dispatched), runs it, and returns the
// recovered panic value and the panicking proc's slot.
func panicMidRun(t *testing.T, e *Engine) (pv interface{}, bad *Proc) {
	t.Helper()
	e.Spawn(0, "blocked", 0, func(p *Proc) { p.Block() })
	e.Spawn(1, "requeued", 0, func(p *Proc) {
		for {
			p.Advance(7)
		}
	})
	e.Spawn(2, "late", 1_000_000, func(p *Proc) { p.Advance(1) })
	bad = e.Spawn(3, "bad", 0, func(p *Proc) {
		p.Advance(50)
		panic("proc body boom")
	})
	defer func() { pv = recover() }()
	e.Run()
	t.Fatal("Run returned normally; the body panic was lost")
	return nil, nil
}

// TestProcBodyPanicReachesRunCaller pins the crash-isolation contract at
// the engine level: a panic raised inside a proc body surfaces from Run
// with its original value (so the harness can recover it on the calling
// goroutine), and a pooled engine Reset afterwards replays a clean
// scenario bit-for-bit like a fresh engine without ever handing out the
// panicked slot again.
func TestProcBodyPanicReachesRunCaller(t *testing.T) {
	fresh := traceRun(NewEngine(topo.New(4), 42))

	e := NewPooledEngine(topo.New(4), 7)
	pv, bad := panicMidRun(t, e)
	if pv != "proc body boom" {
		t.Fatalf("Run's caller recovered %#v, want the body's panic value", pv)
	}

	e.ResetFor(topo.New(4), 42)
	if got := e.NumParked(); got != 3 {
		t.Fatalf("Reset pooled %d slots, want 3 (every slot but the panicked one)", got)
	}
	for _, p := range e.freeProcs {
		if p == bad {
			t.Fatal("Reset pooled the panicked slot; its coroutine is finished")
		}
	}
	reused := traceRun(e)
	if len(fresh) != len(reused) {
		t.Fatalf("fresh run has %d events, post-panic reused run %d", len(fresh), len(reused))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("runs diverged at event %d: fresh %d, reused %d", i, fresh[i], reused[i])
		}
	}
	for _, p := range e.procs {
		if p == bad {
			t.Fatal("the post-panic run reused the panicked slot")
		}
	}
	e.Close()
}

// TestProcBodyPanicPlainEngineLeaksNothing: on a plain engine, Reset
// after a recovered body panic ends every coroutine the run left parked,
// and the engine still runs cleanly afterwards.
func TestProcBodyPanicPlainEngineLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(topo.New(4), 1)
	if pv, _ := panicMidRun(t, e); pv != "proc body boom" {
		t.Fatalf("Run's caller recovered %#v, want the body's panic value", pv)
	}
	e.Reset(1)
	var ran bool
	e.Spawn(0, "ok", 0, func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Error("proc on a plain engine reset after a panic did not run")
	}
	waitGoroutinesAtMost(t, before)
}

// TestResetUndispatchedProcsLeaksNothing covers procs that were spawned
// but never dispatched, on both lifecycles: fresh slots (a coroutine that
// never started) and, on a pooled engine, reused slots (a coroutine parked
// between bodies). Reset must reclaim them all without running their
// bodies, and Reset (plain) or Close (pooled) must end their coroutines.
func TestResetUndispatchedProcsLeaksNothing(t *testing.T) {
	body := func(p *Proc) { t.Error("an undispatched body ran during Reset") }

	t.Run("plain", func(t *testing.T) {
		before := runtime.NumGoroutine()
		e := NewEngine(topo.New(4), 1)
		for c := 0; c < 4; c++ {
			e.Spawn(c, "never-ran", 0, body)
		}
		e.Reset(1)
		if got := e.NumParked(); got != 0 {
			t.Errorf("plain Reset pooled %d procs, want 0", got)
		}
		waitGoroutinesAtMost(t, before)
	})

	t.Run("pooled", func(t *testing.T) {
		before := runtime.NumGoroutine()
		e := NewPooledEngine(topo.New(4), 1)
		for c := 0; c < 4; c++ {
			e.Spawn(c, "never-ran", 0, body)
		}
		e.Reset(1)
		if got := e.NumParked(); got != 4 {
			t.Fatalf("Reset reclaimed %d fresh slots, want 4", got)
		}
		// Respawn onto the parked slots and reset again without running.
		for c := 0; c < 4; c++ {
			e.Spawn(c, "never-ran-reused", 0, body)
		}
		e.Reset(1)
		if got := e.NumParked(); got != 4 {
			t.Fatalf("Reset reclaimed %d reused slots, want 4", got)
		}
		var ran int
		for c := 0; c < 4; c++ {
			e.Spawn(c, "runs", 0, func(p *Proc) { p.Advance(1); ran++ })
		}
		e.Run()
		if ran != 4 {
			t.Errorf("%d of 4 procs ran after the undispatched resets", ran)
		}
		e.Close()
		waitGoroutinesAtMost(t, before)
	})
}

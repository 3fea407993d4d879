package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/topo"
)

// traceRun executes a deterministic contended scenario on e and returns
// the event trace followed by the run's cycle accounting. The scenario
// mixes Advance, AdvanceUser, Idle, IdleUntil (both past and future
// targets), a Resource contended through Use, Block/Wake, PRNG draws, and
// mid-run Spawn of a child that wakes a blocked proc, so it exercises
// every scheduling path.
func traceRun(e *Engine) []int64 {
	var order []int64
	n := e.Machine.NCores
	nic := NewResource("nic")
	rand := func(k int) int64 { return int64(e.Rand.Intn(k)) }
	var waiter, childWaiter *Proc
	waiter = e.Spawn(0, "waiter", 0, func(p *Proc) {
		order = append(order, -p.Block())
	})
	childWaiter = e.Spawn(1%n, "child-waiter", 0, func(p *Proc) {
		order = append(order, -1_000_000-p.Block())
	})
	for c := 0; c < n; c++ {
		c := c
		e.Spawn(c, "worker", int64(c), func(p *Proc) {
			for i := 0; i < 8; i++ {
				p.Advance(5 + rand(30))
				p.Idle(rand(7))
				order = append(order, p.Now())
			}
			for i := 0; i < 4; i++ {
				p.AdvanceUser(4 + rand(20))
				p.IdleUntil(int64(150+60*i) + rand(40))
				order = append(order, 2_000_000+p.Now())
			}
			nic.Use(p, 40)
			order = append(order, 3_000_000+p.Now())
			if c == 1 {
				p.Engine().Spawn(0, "child", p.Now(), func(cp *Proc) {
					cp.Advance(25)
					order = append(order, 5_000_000+cp.Now())
					childWaiter.Wake(cp.Now())
				})
			}
			if c == n-1 {
				waiter.Wake(p.Now())
			}
		})
	}
	e.Run()
	return append(order, e.TotalUserCycles(), e.TotalSysCycles(), nic.BusyCycles(), nic.Uses())
}

// TestResetProducesIdenticalRuns is the engine-level reuse determinism
// guarantee: an engine reset between runs replays a scenario bit-for-bit
// identically to a fresh engine with the same seed — even when the reused
// engine previously ran a different machine shape and a different seed.
func TestResetProducesIdenticalRuns(t *testing.T) {
	fresh := traceRun(NewEngine(topo.New(4), 42))

	e := NewPooledEngine(topo.New(2), 7)
	traceRun(e) // unrelated prior run to dirty every piece of state
	e.ResetFor(topo.New(4), 42)
	reused := traceRun(e)

	if len(fresh) != len(reused) {
		t.Fatalf("fresh run has %d events, reused %d", len(fresh), len(reused))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("runs diverged at event %d: fresh %d, reused %d", i, fresh[i], reused[i])
		}
	}

	// Reset alone (same machine) must also replay identically.
	e.Reset(42)
	again := traceRun(e)
	for i := range fresh {
		if fresh[i] != again[i] {
			t.Fatalf("Reset run diverged at event %d: fresh %d, reused %d", i, fresh[i], again[i])
		}
	}
}

// TestSpawnReusesParkedGoroutines verifies the free list works: a second
// run on a reused engine resumes parked proc coroutines instead of
// creating new ones (each coroutine is a goroutine, so the goroutine
// count must not grow).
func TestSpawnReusesParkedGoroutines(t *testing.T) {
	e := NewPooledEngine(topo.New(4), 1)
	for c := 0; c < 4; c++ {
		e.Spawn(c, "p", 0, func(p *Proc) { p.Advance(10) })
	}
	e.Run()
	if got := e.NumParked(); got != 4 {
		t.Fatalf("after run: %d parked procs, want 4", got)
	}

	before := runtime.NumGoroutine()
	e.Reset(1)
	for c := 0; c < 4; c++ {
		e.Spawn(c, "p", 0, func(p *Proc) { p.Advance(10) })
	}
	if got := e.NumParked(); got != 0 {
		t.Fatalf("respawn left %d procs parked, want 0 (all reused)", got)
	}
	e.Run()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("second run grew goroutines from %d to %d; spawns should reuse parked ones", before, after)
	}
	e.Close()
}

// TestSpawnReuseWithinRun verifies a proc slot freed mid-run is reused by
// a later Spawn in the same run without disturbing results.
func TestSpawnReuseWithinRun(t *testing.T) {
	e := NewPooledEngine(topo.New(2), 1)
	var childEnd int64
	e.Spawn(0, "short", 0, func(p *Proc) { p.Advance(10) })
	e.Spawn(1, "spawner", 5, func(p *Proc) {
		p.Advance(100) // the short proc is done by now
		p.Engine().Spawn(0, "child", p.Now(), func(cp *Proc) {
			cp.Advance(7)
			childEnd = cp.Now()
		})
		p.Advance(1)
	})
	e.Run()
	if childEnd != 112 {
		t.Errorf("child finished at %d, want 112", childEnd)
	}
	// Three spawns, but the child reused the short proc's parked slot, so
	// only two distinct slots exist.
	if got := e.NumParked(); got != 2 {
		t.Errorf("parked procs = %d, want 2 slots", got)
	}
}

// TestDeadlockReportCurrentRunOnly pins the failure-path contract: a
// deadlock panic on a reused engine must name only the current run's
// procs, not slots left over from earlier runs.
func TestDeadlockReportCurrentRunOnly(t *testing.T) {
	e := NewPooledEngine(topo.New(2), 1)
	e.Spawn(0, "previous-alpha", 0, func(p *Proc) { p.Advance(10) })
	e.Spawn(1, "previous-beta", 0, func(p *Proc) { p.Advance(20) })
	e.Run()

	e.Reset(1)
	e.Spawn(0, "stuck-gamma", 0, func(p *Proc) { p.Block() })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked Run did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("deadlock panic value %T, want string", r)
		}
		if !strings.Contains(msg, "stuck-gamma") {
			t.Errorf("deadlock report misses current proc: %q", msg)
		}
		if strings.Contains(msg, "previous-") {
			t.Errorf("deadlock report leaks previous run's procs: %q", msg)
		}
	}()
	e.Run()
}

// waitGoroutinesAtMost polls until the goroutine count drops to at most n
// (exited goroutines are reaped asynchronously).
func waitGoroutinesAtMost(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d, want <= %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResetAfterDeadlockReclaimsProcs is the failure-path leak check:
// Reset after a recovered deadlock panic must unwind the blocked
// coroutines back into the free list (no leaks, slots reusable), and the
// engine must then run cleanly; Close must release every parked coroutine.
func TestResetAfterDeadlockReclaimsProcs(t *testing.T) {
	before := runtime.NumGoroutine()

	e := NewPooledEngine(topo.New(4), 1)
	for c := 0; c < 4; c++ {
		e.Spawn(c, "stuck", 0, func(p *Proc) { p.Advance(5); p.Block() })
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("deadlocked Run did not panic")
			}
		}()
		e.Run()
	}()

	e.Reset(1)
	if got := e.NumParked(); got != 4 {
		t.Fatalf("Reset reclaimed %d procs, want 4", got)
	}
	// The reclaimed slots must be fully reusable.
	var end int64
	for c := 0; c < 4; c++ {
		e.Spawn(c, "ok", 0, func(p *Proc) { p.Advance(30); end = max64(end, p.Now()) })
	}
	e.Run()
	if end != 30 {
		t.Errorf("post-deadlock run finished at %d, want 30", end)
	}

	// Close must drop the engine back to the pre-engine goroutine count.
	e.Close()
	if got := e.NumParked(); got != 0 {
		t.Errorf("Close left %d procs parked", got)
	}
	waitGoroutinesAtMost(t, before)
}

// TestResetNeverRunEngine covers Reset on an engine with spawned but never
// dispatched procs: their never-started coroutines must be reclaimed too.
func TestResetNeverRunEngine(t *testing.T) {
	e := NewPooledEngine(topo.New(2), 1)
	e.Spawn(0, "never-ran", 0, func(p *Proc) { p.Advance(1) })
	e.Reset(1)
	if got := e.NumParked(); got != 1 {
		t.Fatalf("Reset reclaimed %d procs, want 1", got)
	}
	var ran bool
	e.Spawn(0, "runs", 0, func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Error("proc on reset engine did not run")
	}
	e.Close()
}

// TestPlainEngineProcsExitOnDone pins the non-pooled lifecycle: a plain
// NewEngine's proc coroutines end when their bodies finish, so dropping
// the engine without Close leaks nothing — the pre-arena behavior every
// kernel.New caller outside the sweep arena still relies on.
func TestPlainEngineProcsExitOnDone(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := NewEngine(topo.New(8), 1)
		for c := 0; c < 8; c++ {
			e.Spawn(c, "p", 0, func(p *Proc) { p.Advance(10) })
		}
		e.Run()
		if got := e.NumParked(); got != 0 {
			t.Fatalf("plain engine parked %d procs, want 0", got)
		}
	}
	waitGoroutinesAtMost(t, before)
}

// TestPlainEngineResetAfterDeadlock: on a plain engine, Reset after a
// recovered deadlock releases the blocked coroutines entirely (nothing is
// pooled), and the engine still runs cleanly afterwards.
func TestPlainEngineResetAfterDeadlock(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(topo.New(2), 1)
	e.Spawn(0, "stuck", 0, func(p *Proc) { p.Block() })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("deadlocked Run did not panic")
			}
		}()
		e.Run()
	}()
	e.Reset(1)
	if got := e.NumParked(); got != 0 {
		t.Errorf("plain Reset pooled %d procs, want 0", got)
	}
	var ran bool
	e.Spawn(0, "ok", 0, func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Error("proc on reset plain engine did not run")
	}
	waitGoroutinesAtMost(t, before)
}

// TestResetWhileRunningPanics guards the API contract.
func TestResetWhileRunningPanics(t *testing.T) {
	e := NewEngine(topo.New(1), 1)
	e.Spawn(0, "p", 0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Reset during Run did not panic")
			}
		}()
		p.Engine().Reset(1)
	})
	e.Run()
}

// contTraceRun executes a second deterministic scenario on e, built from
// continuation-style bodies: each proc is a straight-line chain of single
// blocking calls with its state in closure variables, the shape of the
// kernel's timed-fault injector (an IdleUntil per step) and the tbl-hw
// latency probes (an Advance per memory access). The chains cover
// AdvanceUser, Idle, IdleUntil, a shared Resource contended through Use,
// Block/Wake in both directions between chain procs and loop procs, PRNG
// draws between steps, and a child spawned mid-chain. It returns the event
// trace followed by the run's cycle accounting.
func contTraceRun(e *Engine) []int64 {
	var order []int64
	n := e.Machine.NCores
	nic := NewResource("nic")

	var loopWaiter *Proc
	loopWaiter = e.Spawn(0, "loop-waiter", 0, func(p *Proc) {
		order = append(order, -p.Block())
	})
	chainWaiter := e.Spawn(1%n, "chain-waiter", 0, func(p *Proc) {
		p.Block()
		order = append(order, -1000-p.Now())
	})

	for c := 0; c < n; c++ {
		c := c
		e.Spawn(c, "loop-worker", int64(c), func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Advance(int64(5 + p.Engine().Rand.Intn(30)))
				p.Idle(int64(p.Engine().Rand.Intn(7)))
				order = append(order, p.Now())
			}
			nic.Use(p, 40)
			order = append(order, p.Now())
			if c == 0 {
				chainWaiter.Wake(p.Now())
			}
		})
	}

	for c := 0; c < n; c++ {
		c := c
		e.Spawn(c, "chain-worker", int64(10+c), func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.AdvanceUser(int64(4 + p.Engine().Rand.Intn(20)))
				order = append(order, 2_000_000+p.Now())
				p.Idle(int64(p.Engine().Rand.Intn(5)))
			}
			p.IdleUntil(p.Now() + int64(p.Engine().Rand.Intn(50)))
			if c == 1%n {
				p.Engine().Spawn(0, "chain-child", p.Now(), func(cp *Proc) {
					cp.Advance(25)
					order = append(order, 5_000_000+cp.Now())
				})
			}
			if c == n-1 {
				loopWaiter.Wake(p.Now())
			}
			nic.Use(p, 30)
			order = append(order, 7_000_000+p.Now())
		})
	}

	e.Run()
	return append(order, e.TotalUserCycles(), e.TotalSysCycles(), nic.BusyCycles(), nic.Uses())
}

func diffTraces(t *testing.T, label string, want, got []int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: diverged at event %d: got %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestContResetProducesIdenticalRuns: the continuation-style scenario
// replays bit-for-bit on an engine reused across a machine change and
// across a same-machine Reset.
func TestContResetProducesIdenticalRuns(t *testing.T) {
	fresh := contTraceRun(NewEngine(topo.New(4), 42))

	e := NewPooledEngine(topo.New(2), 7)
	contTraceRun(e)
	e.ResetFor(topo.New(4), 42)
	diffTraces(t, "reused", fresh, contTraceRun(e))

	e.Reset(42)
	diffTraces(t, "reset-same-machine", fresh, contTraceRun(e))
	e.Close()
}

// TestContDeadlockRecoveryReplay: a deadlock with one proc blocked after an
// Advance and one blocked after an IdleUntil (the injector's wait) is
// reported with both names; Reset reclaims both coroutines, and the
// continuation-style scenario then replays as on a fresh engine.
func TestContDeadlockRecoveryReplay(t *testing.T) {
	e := NewPooledEngine(topo.New(4), 1)
	e.Spawn(0, "stuck-advance", 0, func(p *Proc) { p.Advance(5); p.Block() })
	e.Spawn(1, "stuck-idle", 0, func(p *Proc) { p.IdleUntil(50); p.Block() })
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("deadlocked Run did not panic")
			}
			msg, _ := r.(string)
			if !strings.Contains(msg, "stuck-advance") || !strings.Contains(msg, "stuck-idle") {
				t.Errorf("deadlock report misses a blocked proc: %q", msg)
			}
		}()
		e.Run()
	}()

	e.Reset(42)
	if got := e.NumParked(); got != 2 {
		t.Fatalf("Reset reclaimed %d procs, want 2", got)
	}
	diffTraces(t, "post-deadlock", contTraceRun(NewEngine(topo.New(4), 42)), contTraceRun(e))
	e.Close()
}

// TestContResetNeverRunEngine covers Reset with never-dispatched procs
// that were spawned with future start times, as the injector and probes
// are: the slots are reclaimed and reused, and the next run's chain starts
// from the reset clock.
func TestContResetNeverRunEngine(t *testing.T) {
	e := NewPooledEngine(topo.New(2), 1)
	e.Spawn(0, "never-ran-early", 0, func(p *Proc) { p.IdleUntil(100) })
	e.Spawn(1, "never-ran-late", 1_000, func(p *Proc) { p.Advance(1) })
	e.Reset(1)
	if got := e.NumParked(); got != 2 {
		t.Fatalf("Reset reclaimed %d procs, want 2", got)
	}
	var end int64
	e.Spawn(0, "chain", 0, func(p *Proc) {
		p.Advance(10)
		p.IdleUntil(40)
		p.AdvanceUser(5)
		end = p.Now()
	})
	if got := e.NumParked(); got != 1 {
		t.Errorf("respawn left %d procs parked, want 1 (one slot reused)", got)
	}
	e.Run()
	if end != 45 {
		t.Errorf("chain on reset engine ended at %d, want 45", end)
	}
	e.Close()
}

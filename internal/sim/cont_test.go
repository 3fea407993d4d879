package sim

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/topo"
)

// contTraceRun executes a deterministic scenario mixing continuation procs
// and goroutine procs on e and returns the event trace plus final cycle
// accounting. It exercises every continuation directive (advance, advance
// user, idle, use, block, goto/loop, stop), cross-flavor Wake in both
// directions, PRNG draws inside segments, mid-run SpawnCont, and a shared
// Resource contended by both proc flavors.
func contTraceRun(e *Engine) []int64 {
	var order []int64
	nic := NewResource("nic")

	// Goroutine proc woken by the last continuation worker.
	var gwaiter *Proc
	gwaiter = e.Spawn(0, "g-waiter", 0, func(p *Proc) {
		order = append(order, -p.Block())
	})
	// Continuation proc woken by a goroutine worker.
	cwaiter := e.SpawnCont(1%e.Machine.NCores, "c-waiter", 0, func(p *Proc) Cont {
		return p.BlockThen(func(p *Proc) Cont {
			order = append(order, -1000-p.Now())
			return p.Stop()
		})
	})

	for c := 0; c < e.Machine.NCores; c++ {
		c := c
		e.Spawn(c, "g-worker", int64(c), func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Advance(int64(5 + p.Engine().Rand.Intn(30)))
				p.Idle(int64(p.Engine().Rand.Intn(7)))
				order = append(order, p.Now())
			}
			nic.Use(p, 40)
			order = append(order, p.Now())
			if c == 0 {
				cwaiter.Wake(p.Now())
			}
		})
	}

	for c := 0; c < e.Machine.NCores; c++ {
		c := c
		var step func(i int) ContFunc
		step = func(i int) ContFunc {
			return func(p *Proc) Cont {
				if i >= 6 {
					if c == 1%e.Machine.NCores {
						p.Engine().SpawnCont(0, "c-child", p.Now(), func(cp *Proc) Cont {
							return cp.AdvanceThen(25, func(cp *Proc) Cont {
								order = append(order, 5_000_000+cp.Now())
								return cp.Stop()
							})
						})
					}
					if c == e.Machine.NCores-1 {
						gwaiter.Wake(p.Now())
					}
					return p.UseThen(nic, 30, func(p *Proc) Cont {
						order = append(order, 7_000_000+p.Now())
						return p.Stop()
					})
				}
				adv := int64(4 + p.Engine().Rand.Intn(20))
				return p.AdvanceUserThen(adv, func(p *Proc) Cont {
					order = append(order, 2_000_000+p.Now())
					return p.Goto(func(p *Proc) Cont {
						return p.IdleThen(int64(p.Engine().Rand.Intn(5)), step(i+1))
					})
				})
			}
		}
		e.SpawnCont(c, "c-worker", int64(10+c), step(0))
	}

	e.Run()
	order = append(order, e.TotalUserCycles(), e.TotalSysCycles(), nic.BusyCycles(), nic.Uses())
	return order
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

// TestContTraceMatchesGoroutineMode is the core tentpole pin: the same
// continuation bodies, run inline on the dispatcher (default) versus
// replayed through blocking calls on coroutine procs (SetContSched
// false), must produce bit-for-bit identical traces and accounting.
func TestContTraceMatchesGoroutineMode(t *testing.T) {
	inline := contTraceRun(NewEngine(topo.New(4), 42))

	e := NewEngine(topo.New(4), 42)
	e.SetContSched(false)
	diffTraces(t, "goroutine-mode", inline, contTraceRun(e))
}

// TestContResetProducesIdenticalRuns extends the fresh==reused guarantee
// to continuation procs: a pooled engine dirtied by an unrelated prior run
// (different machine, different seed) must replay the mixed scenario
// identically to a fresh engine after ResetFor.
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

// TestContOnlyRunSpawnsNoGoroutines pins the zero-channel-ops claim from
// the outside: a run consisting purely of continuation procs — including
// block/wake ping-pong and mid-run spawns — starts no goroutines at all.
func TestContOnlyRunSpawnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewPooledEngine(topo.New(4), 3)
	var total int64

	var pong *Proc
	pong = e.SpawnCont(1, "pong", 0, func(p *Proc) Cont {
		return p.BlockThen(func(p *Proc) Cont {
			total += p.Now()
			return p.Stop()
		})
	})
	e.SpawnCont(0, "ping", 0, func(p *Proc) Cont {
		return p.AdvanceThen(50, func(p *Proc) Cont {
			pong.Wake(p.Now())
			p.Engine().SpawnCont(2, "late", p.Now(), func(cp *Proc) Cont {
				return cp.IdleThen(9, nil)
			})
			return p.Stop()
		})
	})
	e.Run()

	if total != 50 {
		t.Errorf("pong woke at %d, want 50", total)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("cont-only run grew goroutines from %d to %d", before, after)
	}
	if got := e.NumParked(); got != 0 {
		t.Errorf("cont-only run parked %d goroutine slots, want 0", got)
	}
	if got := len(e.freeConts); got != 3 {
		t.Errorf("pooled engine recycled %d cont slots, want 3", got)
	}

	// The recycled slots must be reused by the next run's SpawnCont.
	e.Reset(3)
	e.SpawnCont(0, "again", 0, func(p *Proc) Cont { return p.AdvanceThen(1, nil) })
	if got := len(e.freeConts); got != 2 {
		t.Errorf("respawn left %d cont slots free, want 2 (one reused)", got)
	}
	e.Run()
	e.Close()
	if got := len(e.freeConts); got != 0 {
		t.Errorf("Close left %d cont slots pooled", got)
	}
}

// TestContDeadlockRecoveryReplay extends the deadlock-recovery pin to
// continuation procs: a deadlock involving a blocked continuation proc
// must name it in the report, Reset must reclaim the slot, and the
// post-recovery replay must match a fresh engine bit-for-bit.
func TestContDeadlockRecoveryReplay(t *testing.T) {
	e := NewPooledEngine(topo.New(4), 1)
	e.SpawnCont(0, "stuck-cont", 0, func(p *Proc) Cont {
		return p.AdvanceThen(5, func(p *Proc) Cont { return p.BlockThen(nil) })
	})
	e.Spawn(1, "stuck-goro", 0, func(p *Proc) { p.Advance(5); p.Block() })
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("deadlocked Run did not panic")
			}
			msg, _ := r.(string)
			if !strings.Contains(msg, "stuck-cont") || !strings.Contains(msg, "stuck-goro") {
				t.Errorf("deadlock report misses a blocked proc: %q", msg)
			}
		}()
		e.Run()
	}()

	e.Reset(42)
	if got := len(e.freeConts); got != 1 {
		t.Fatalf("Reset reclaimed %d cont slots, want 1", got)
	}
	diffTraces(t, "post-deadlock", contTraceRun(NewEngine(topo.New(4), 42)), contTraceRun(e))
	e.Close()
}

// TestContResetNeverRunEngine covers Reset with a spawned but never
// dispatched continuation proc: the slot must be reclaimed without a
// goroutine to unwind.
func TestContResetNeverRunEngine(t *testing.T) {
	e := NewPooledEngine(topo.New(2), 1)
	e.SpawnCont(0, "never-ran", 0, func(p *Proc) Cont { return p.Stop() })
	e.Reset(1)
	if got := len(e.freeConts); got != 1 {
		t.Fatalf("Reset reclaimed %d cont slots, want 1", got)
	}
	var ran bool
	e.SpawnCont(0, "runs", 0, func(p *Proc) Cont { ran = true; return p.Stop() })
	e.Run()
	if !ran {
		t.Error("cont proc on reset engine did not run")
	}
	e.Close()
}

// TestContYieldingCallPanics guards the API contract: a continuation
// segment calling a blocking Proc method that needs to yield panics with
// an actionable message instead of wedging the dispatcher.
func TestContYieldingCallPanics(t *testing.T) {
	e := NewEngine(topo.New(2), 1)
	e.Spawn(0, "contender", 0, func(p *Proc) { p.Advance(100) })
	e.SpawnCont(0, "misuser", 0, func(p *Proc) Cont {
		p.Advance(10) // must yield (the contender is runnable at t=0) → panic
		return p.Stop()
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("yielding call on cont proc did not panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "misuser") || !strings.Contains(msg, "AdvanceThen") {
			t.Errorf("panic message not actionable: %q", msg)
		}
	}()
	e.Run()
}

// TestContFallbackModeParksGoroutines verifies SetContSched(false) really
// routes SpawnCont through the goroutine path (the mode the determinism
// suite compares against).
func TestContFallbackModeParksGoroutines(t *testing.T) {
	e := NewPooledEngine(topo.New(2), 1)
	e.SetContSched(false)
	e.SpawnCont(0, "fallback", 0, func(p *Proc) Cont { return p.AdvanceThen(10, nil) })
	e.Run()
	if got := e.NumParked(); got != 1 {
		t.Errorf("fallback mode parked %d goroutines, want 1", got)
	}
	if got := len(e.freeConts); got != 0 {
		t.Errorf("fallback mode recycled %d cont slots, want 0", got)
	}
	e.Close()
}

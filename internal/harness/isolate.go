package harness

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// FailedPoint records one sweep point that produced no measurement: its
// body panicked twice (once on the pooled engine, once on a fresh one) or
// wedged past the wall-clock watchdog.
type FailedPoint struct {
	// Variant and Cores identify the point by its sweep cell. Cores is the
	// cell's axis value: a core count, or for experiments whose axis is
	// another quantity (degrade's severity percent, latload's offered-load
	// percent), that value.
	Variant string
	Cores   int
	// Err is the failure description (panic value and stack, or timeout).
	Err string
}

// pointTimeoutError marks a watchdog expiry; unlike a panic it is not
// retried — a wedge is overwhelmingly deterministic (a simulation deadlock
// or livelock), so a retry would just burn a second timeout.
type pointTimeoutError struct{ d time.Duration }

func (e pointTimeoutError) Error() string {
	return fmt.Sprintf("timed out after %s (point abandoned)", e.d)
}

// defaultPointTimeout bounds one sweep point's wall clock. The slowest
// legitimate point (a full 48-core non-quick simulation) finishes in
// seconds, so two minutes is purely a wedge detector.
const defaultPointTimeout = 2 * time.Minute

func (o Options) pointTimeout() time.Duration {
	if o.PointTimeout > 0 {
		return o.PointTimeout
	}
	return defaultPointTimeout
}

// testPointHook, when non-nil, runs at the start of every guarded point
// body. Tests install it to inject panics and wedges into chosen points;
// attempt is 0 for the first try and 1 for the fresh-engine retry.
var testPointHook func(exp, variant string, cores, attempt int)

// runGuarded executes f on a child goroutine with a recover guard and a
// wall-clock watchdog. A panic becomes an error; a watchdog expiry
// abandons the child (it may be wedged forever inside the engine), disowns
// the worker's pooled engine slot, and returns pointTimeoutError. The
// abandoned flag handed to the child makes a later unwedge harmless: the
// child sees it and keeps its result out of the shared cache (a wedged
// simulation that eventually finishes computed under an engine the worker
// already moved off of, and its point was already reported failed).
func (o Options) runGuarded(exp, variant string, cores, attempt int, f func(o Options) Point) (Point, error) {
	co := o
	co.abandoned = new(atomic.Bool)
	if co.slot != nil {
		co.slotGen = co.slot.generation()
	}
	type outcome struct {
		p   Point
		err error
	}
	ch := make(chan outcome, 1)
	go func() { //mosvet:allow detlint the watchdog's point body must run off the caller's goroutine so a wedged simulation can be abandoned
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
			}
		}()
		if testPointHook != nil {
			testPointHook(exp, variant, cores, attempt)
		}
		ch <- outcome{p: f(co)}
	}()
	timer := time.NewTimer(o.pointTimeout()) //mosvet:allow detlint the watchdog races real time against a wedged simulation by design; timeouts only abandon points, never shape results
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.p, out.err
	case <-timer.C:
		co.abandoned.Store(true)
		if co.slot != nil {
			co.slot.abandon()
		}
		return Point{}, pointTimeoutError{o.pointTimeout()}
	}
}

// safeCachedPoint returns c's measurement: unrun when another shard owns
// its spec (errShardSkipped), from o.Cache on a hit, and otherwise computed
// by c's body and stored under fp, its section's cost-model fingerprint;
// sweep is its only caller, and exp names the asking experiment in the
// cache's stats. The body runs under runGuarded: a panicking body is
// retried exactly once on a fresh non-pooled engine, and a second panic or
// a watchdog timeout yields an error instead of a Point. A panic raised
// inside a simulated proc's body surfaces from the engine's Run on the
// guarded goroutine like any other. The pooled engine it left behind stays
// usable: its next Reset unwinds the parked procs and drops the panicked
// slot. The fresh-engine retry rules out the arena as the cause rather
// than repairing it. One crashing spec therefore costs exactly its cells;
// the rest of the sweep completes. A body the watchdog already abandoned
// never stores its result: the point was reported failed, and a late
// store would poison reruns with a value no one validated.
func (o Options) safeCachedPoint(exp string, c cell, fp string) (Point, error) {
	sp := c.spec
	if !o.shardOwns(sp) {
		return Point{}, errShardSkipped
	}
	if o.Cache != nil {
		if p, ok := o.Cache.lookup(exp, sp.section, fp, sp.key); ok {
			return p, nil
		}
	}
	body := func(co Options) Point {
		p := c.run(co)
		if o.Cache != nil && !co.abandoned.Load() {
			o.Cache.store(sp.section, fp, sp.key, p)
		}
		return p
	}
	p, err := o.runGuarded(exp, c.variant, c.cores, 0, body)
	if err == nil {
		return p, nil
	}
	var timeout pointTimeoutError
	if errors.As(err, &timeout) {
		return Point{}, err
	}
	ro := o
	ro.freshEngines = true
	ro.slot = nil
	p, err2 := ro.runGuarded(exp, c.variant, c.cores, 1, body)
	if err2 == nil {
		return p, nil
	}
	return Point{}, fmt.Errorf("failed twice (retried on a fresh engine): %v; retry: %v", err, err2)
}

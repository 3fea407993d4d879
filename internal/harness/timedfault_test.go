package harness

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/topo"
)

// timedFaultResult runs one quick Metis point — the workload that streams
// its input through every chip's memory controller — under the given
// fault spec, booting its kernel on o's engine: the slot's pooled engine,
// or a fresh one under o.freshEngines.
func timedFaultResult(t *testing.T, o Options, cores int, faults string) apps.Result {
	t.Helper()
	f, err := fault.Parse(faults)
	if err != nil {
		t.Fatal(err)
	}
	o.Quick, o.Seed, o.Fault = true, 1, f
	pk := kernel.PK()
	sp := o.newSpec(spec{workload: "metis", cfg: &pk, cores: cores, rr: true, domains: domainsFor("metis")})
	opts := apps.DefaultMetisOpts()
	opts.InputBytes /= 4
	opts.SuperPages = true
	return apps.RunMetis(o.boot(&sp), opts)
}

// TestTimedFaultStepFiresMidRun pins the kernel's timed fault injector
// end to end: a DRAM throttle scheduled mid-run must change the point, the
// same throttle scheduled at t=0 must equal the boot-time throttle, one
// scheduled after the workload finishes must end the run exactly at its
// timestamp, and a pooled engine dirtied by earlier timed points must
// replay the timed point exactly like a fresh engine.
func TestTimedFaultStepFiresMidRun(t *testing.T) {
	const (
		base  = "dram:1@50%"
		timed = base + ",dram:0@50%@t=1ms"
	)
	plain := Options{freshEngines: true}
	fresh := timedFaultResult(t, plain, 8, timed)
	boot := timedFaultResult(t, plain, 8, base+",dram:0@50%")

	if without := timedFaultResult(t, plain, 8, base); reflect.DeepEqual(fresh, without) {
		t.Errorf("the @t=1ms throttle left the point unchanged: %+v", fresh)
	}
	if reflect.DeepEqual(fresh, boot) {
		t.Errorf("the @t=1ms throttle equals the boot-time throttle; the step fired at boot: %+v", fresh)
	}
	if atZero := timedFaultResult(t, plain, 8, base+",dram:0@50%@t=0s"); !reflect.DeepEqual(atZero, boot) {
		t.Errorf("a throttle at t=0 differs from the boot-time throttle:\nt=0:  %+v\nboot: %+v", atZero, boot)
	}

	if late := timedFaultResult(t, plain, 8, base+",dram:0@50%@t=100ms"); late.WallCycles != topo.SecToCycles(0.1) {
		t.Errorf("a step at t=100ms, after the workload, ended the run at cycle %d, want %d", late.WallCycles, topo.SecToCycles(0.1))
	}

	slot := &engineSlot{}
	defer func() { slot.eng.Close() }()
	o := Options{slot: slot, slotGen: slot.generation()}
	timedFaultResult(t, o, 4, timed+",dram:2@25%@t=2ms")
	timedFaultResult(t, o, 8, timed)
	if reused := timedFaultResult(t, o, 8, timed); !reflect.DeepEqual(reused, fresh) {
		t.Errorf("reused pooled engine differs from a fresh one:\nreused: %+v\nfresh:  %+v", reused, fresh)
	}
}

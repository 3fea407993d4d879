package mem

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/topo"
)

// reuseMachines are the machines the reuse tests run on: the paper's host
// (one sharer word) and big192, whose cores 64.. live in the wide words a
// reused slot must clear.
func reuseMachines(t *testing.T) []*topo.Machine {
	t.Helper()
	big, ok := topo.Lookup("big192")
	if !ok {
		t.Fatal("big192 profile not registered")
	}
	return []*topo.Machine{topo.New(48), big}
}

// heatLine leaves l in the hottest state a line can be in before it is
// freed: labelled, shared by cores spread over every sharer word and chip,
// then dirty on the last core with a busy window still open.
func heatLine(md *Model, l Line) {
	md.Label(l, "hot")
	n := md.Machine().NCores
	for c := 0; c < n; c += 5 {
		md.Read(c, l, 0)
	}
	md.Atomic(n-1, l, 100)
	md.Read(n/2, l, 200)
}

// TestReusedLineStartsCold pins the recycling contract: a slot handed out
// again by Alloc is indistinguishable from a never-used line with the same
// home, whatever state its previous owner left behind.
func TestReusedLineStartsCold(t *testing.T) {
	type access func(md *Model, c int, l Line, now int64) int64
	ops := map[string]access{
		"read":   (*Model).Read,
		"write":  (*Model).Write,
		"atomic": (*Model).Atomic,
	}
	for _, m := range reuseMachines(t) {
		n := m.NCores
		probes := []int{0, 1, n / 2, n - 1}
		if n > 64 {
			probes = append(probes, 64, 100)
		}
		for name, op := range ops {
			for _, home := range []int{0, m.Chips - 1} {
				for _, c := range probes {
					recycled := NewModel(m)
					old := recycled.Alloc(0)
					heatLine(recycled, old)
					recycled.Free(old)
					l := recycled.Alloc(home)
					if l != old {
						t.Fatalf("%s: Alloc after Free returned line %d, want the freed slot %d", m.Name, l, old)
					}
					fresh := NewModel(m)
					f := fresh.Alloc(home)
					// The first access from c, then a second one from a core
					// on another chip: both must cost what a fresh line costs.
					other := (c + n/2) % n
					for i, core := range []int{c, other} {
						now := int64(1_000 + i)
						if got, want := op(recycled, core, l, now), op(fresh, core, f, now); got != want {
							t.Errorf("%s %s home %d: access %d from core %d costs %d on a reused line, %d on a fresh one",
								m.Name, name, home, i, core, got, want)
						}
					}
				}
			}
		}
	}
}

// TestReusedLineIsUnlabelled checks that a recycled slot does not keep
// feeding its previous owner's profile record.
func TestReusedLineIsUnlabelled(t *testing.T) {
	md := newModel48()
	l := md.Alloc(0)
	heatLine(md, l)
	before := lineWrites(md, "hot")
	md.Free(l)
	if md.Alloc(0) != l {
		t.Fatal("Alloc did not reuse the freed slot")
	}
	md.Write(3, l, 5_000)
	md.Atomic(40, l, 6_000)
	if after := lineWrites(md, "hot"); after != before {
		t.Errorf("writes to a reused line were charged to its old label: %d -> %d", before, after)
	}
	md.Label(l, "new")
	md.Write(7, l, 7_000)
	if got := lineWrites(md, "new"); got != 1 {
		t.Errorf("relabelled reused line recorded %d writes, want 1", got)
	}
}

// lineWrites sums the writes recorded under a line label.
func lineWrites(md *Model, name string) int64 {
	var n int64
	for _, s := range md.Prof.TopLines(100) {
		if s.Name == name {
			n += s.Writes
		}
	}
	return n
}

// TestFreeReusesLIFOAndTracksLive pins the free list's bookkeeping: the
// directory does not grow while freed slots remain, slots come back last
// freed first, and LiveLines counts exactly the unfreed lines.
func TestFreeReusesLIFOAndTracksLive(t *testing.T) {
	md := newModel48()
	ls := md.AllocN(0, 4)
	md.Free(ls[1], ls[3])
	if md.NumLines() != 4 || md.LiveLines() != 2 {
		t.Fatalf("after freeing 2 of 4: NumLines %d LiveLines %d, want 4 and 2", md.NumLines(), md.LiveLines())
	}
	if a, b := md.Alloc(1), md.Alloc(2); a != ls[3] || b != ls[1] {
		t.Errorf("reuse order = %d, %d; want %d, %d (last freed first)", a, b, ls[3], ls[1])
	}
	if c := md.Alloc(0); c != 4 || md.NumLines() != 5 || md.LiveLines() != 5 {
		t.Errorf("Alloc with an empty free list returned %d (NumLines %d, LiveLines %d), want 4 (5, 5)",
			c, md.NumLines(), md.LiveLines())
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %q, want it to mention %q", what, msg, want)
		}
	}()
	f()
}

func TestFreeOfUnallocatedOrFreedLinePanics(t *testing.T) {
	md := newModel48()
	l := md.Alloc(0)
	mustPanic(t, "Free(NoLine)", "unallocated line -1", func() { md.Free(NoLine) })
	mustPanic(t, "Free of a never-allocated line", "unallocated line 5", func() { md.Free(5) })
	md.Free(l)
	mustPanic(t, "double Free", fmt.Sprintf("freed line %d", l), func() { md.Free(l) })
}

func TestAccessToFreedLinePanics(t *testing.T) {
	md := newModel48()
	keep := md.Alloc(0)
	l := md.Alloc(0)
	md.Free(l)
	want := fmt.Sprintf("freed line %d", l)
	mustPanic(t, "Read", want, func() { md.Read(0, l, 0) })
	mustPanic(t, "Write", want, func() { md.Write(0, l, 0) })
	mustPanic(t, "Atomic", want, func() { md.Atomic(0, l, 0) })
	mustPanic(t, "AccessSet", want, func() { md.AccessSet(0, []Line{keep, l}, OpRead, 0) })
	mustPanic(t, "DMAWrite", want, func() { md.DMAWrite([]Line{l}) })
	mustPanic(t, "Label", want, func() { md.Label(l, "x") })
}

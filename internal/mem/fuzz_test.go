package mem

import (
	"testing"

	"repro/internal/topo"
)

// fuzzPoolLines is the allocated line pool fuzzed sets draw from; small
// enough that fuzz inputs routinely alias the same line (the interesting
// case for batch charging).
const fuzzPoolLines = 16

// buildFuzzSet decodes raw bytes into a LineSet over a fuzzPoolLines-line
// pool. Each byte selects a pool line; a 0xFF byte resets the set built so
// far, exercising capacity reuse mid-construction.
func buildFuzzSet(raw []byte, lines []Line) *LineSet {
	ls := NewLineSet(len(raw))
	for _, b := range raw {
		if b == 0xFF {
			ls.Reset()
			continue
		}
		ls.Add(lines[int(b)%len(lines)])
	}
	return ls
}

// seedFuzzState gives the directory varied pre-existing state driven by
// the seed byte: some lines shared remotely, some dirty, some untouched.
func seedFuzzState(md *Model, lines []Line, seed byte) {
	for i, l := range lines {
		switch (int(seed) + i) % 4 {
		case 0:
			md.Read(40, l, 0) // clean sharer on chip 6
		case 1:
			md.Write(13, l, 0) // dirty on chip 2
		case 2:
			md.Read(1, l, 0)
			md.Read(25, l, 0) // sharers on chips 0 and 4
		}
	}
}

// FuzzLineSet fuzzes line-set construction and merging against the batch
// charging contract: for any construction sequence (including duplicates,
// resets, and aliasing between the two sets), AccessSet over the merged
// set must cost exactly what the per-line calls cost one at a time at the
// same virtual time, and must leave the directory in the same state.
func FuzzLineSet(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{3, 4, 5}, uint8(7), uint8(0), uint8(1))
	f.Add([]byte{}, []byte{0, 0, 0, 0}, uint8(0), uint8(1), uint8(2))
	f.Add([]byte{1, 0xFF, 2, 2}, []byte{2, 0xFF}, uint8(47), uint8(2), uint8(3))
	f.Add([]byte{9, 9, 9, 9, 9}, []byte{9}, uint8(23), uint8(3), uint8(0))

	f.Fuzz(func(t *testing.T, rawA, rawB []byte, core, opByte, seed uint8) {
		if len(rawA)+len(rawB) > 256 {
			t.Skip("cap work per input")
		}
		c := int(core) % topo.MaxCores
		op := Op(int(opByte) % 3)

		build := func() (*Model, *LineSet) {
			md := NewModel(topo.New(topo.MaxCores))
			lines := md.AllocN(int(seed)%topo.Chips, fuzzPoolLines)
			seedFuzzState(md, lines, seed)
			merged := buildFuzzSet(rawA, lines).Merge(buildFuzzSet(rawB, lines))
			return md, merged
		}

		mdA, setA := build()
		mdB, setB := build()
		if setA.Len() != setB.Len() {
			t.Fatalf("identical construction produced lengths %d and %d", setA.Len(), setB.Len())
		}

		const now = 1000
		batch := mdA.AccessSet(c, setA.Lines(), op, now)
		var seq int64
		for _, l := range setB.Lines() {
			switch op {
			case OpRead:
				seq += mdB.Read(c, l, now)
			case OpWrite:
				seq += mdB.Write(c, l, now)
			case OpAtomic:
				seq += mdB.Atomic(c, l, now)
			}
		}
		if batch != seq {
			t.Errorf("op %d core %d: batch cost %d != sequential cost %d (set %v)",
				op, c, batch, seq, setA.Lines())
		}
		// The directory must be in identical state afterwards: probe every
		// pool line from a different core at a later time.
		probe := (c + 9) % topo.MaxCores
		for l := Line(0); int(l) < fuzzPoolLines; l++ {
			if a, b := mdA.Read(probe, l, now+5000), mdB.Read(probe, l, now+5000); a != b {
				t.Errorf("op %d: post-batch state diverged on line %d (probe costs %d vs %d)", op, l, a, b)
			}
		}
		if mdA.Reads() != mdB.Reads() || mdA.Writes() != mdB.Writes() {
			t.Errorf("op %d: access counters diverged (reads %d/%d writes %d/%d)",
				op, mdA.Reads(), mdB.Reads(), mdA.Writes(), mdB.Writes())
		}
	})
}

// TestLineSetMerge pins Merge's bookkeeping: order, duplicates, chaining,
// and that merging an empty set is a no-op.
func TestLineSetMerge(t *testing.T) {
	a := NewLineSet(4).Add(1).Add(2)
	b := NewLineSet(4).Add(2).Add(7)
	if got := a.Merge(b); got != a {
		t.Error("Merge should return the receiver for chaining")
	}
	want := []Line{1, 2, 2, 7}
	if a.Len() != len(want) {
		t.Fatalf("merged Len = %d, want %d", a.Len(), len(want))
	}
	for i, l := range a.Lines() {
		if l != want[i] {
			t.Errorf("merged[%d] = %d, want %d", i, l, want[i])
		}
	}
	if b.Len() != 2 {
		t.Errorf("Merge mutated its argument: Len = %d, want 2", b.Len())
	}
	a.Merge(NewLineSet(0))
	if a.Len() != len(want) {
		t.Errorf("merging empty set changed Len to %d", a.Len())
	}
}

// maxScriptOps caps the operations one FuzzAllocFree input runs.
const maxScriptOps = 512

// FuzzAllocFree fuzzes line recycling against a model that never frees.
// The input decodes into a script of Alloc, Free, Read, Write, Atomic,
// AccessSet and DMAWrite operations on live handles, run on both models
// side by side; the recycling model hands freed slots back out, the
// reference model allocates a new line every time. Since a reused line
// must start exactly like a fresh one, every returned cost and the
// Reads, Writes and RemoteTransfers counters must agree.
//
// Script encoding: the first byte picks the machine (even: the paper's
// 48-core host, odd: big192, whose wide sharer words a stale slot would
// leak). Then each operation is an opcode byte followed by its argument
// bytes; a script ends when the bytes run out.
func FuzzAllocFree(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 0, 5, 1, 0, 0, 2, 3, 0, 7})
	f.Add([]byte{1, 0, 0, 0, 7, 2, 100, 0, 9, 1, 0, 0, 3, 3, 191, 0, 4})

	big, ok := topo.Lookup("big192")
	if !ok {
		f.Fatal("big192 profile not registered")
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		m := topo.New(topo.MaxCores)
		if script[0]%2 == 1 {
			m = big
		}
		rec, ref := NewModel(m), NewModel(m)
		var liveRec, liveRef []Line

		pos := 1
		next := func() int {
			if pos >= len(script) {
				return -1
			}
			pos++
			return int(script[pos-1])
		}
		// subset decodes a length byte and that many handle picks.
		subset := func() (a, b []Line, ok bool) {
			n := next()
			for i := 0; i < n%8; i++ {
				k := next()
				if k < 0 {
					return nil, nil, false
				}
				a = append(a, liveRec[k%len(liveRec)])
				b = append(b, liveRef[k%len(liveRef)])
			}
			return a, b, n >= 0
		}
		var now int64
		for step := 0; step < maxScriptOps; step++ {
			opcode := next()
			if opcode < 0 {
				break
			}
			now += int64(opcode) * 37
			if len(liveRec) == 0 || opcode%7 == 0 {
				home := next()
				if home < 0 {
					break
				}
				liveRec = append(liveRec, rec.Alloc(home%m.Chips))
				liveRef = append(liveRef, ref.Alloc(home%m.Chips))
				continue
			}
			switch opcode % 7 {
			case 1: // Free
				k := next()
				if k < 0 {
					break
				}
				k %= len(liveRec)
				rec.Free(liveRec[k])
				liveRec = append(liveRec[:k], liveRec[k+1:]...)
				liveRef = append(liveRef[:k], liveRef[k+1:]...)
			case 2, 3, 4: // Read, Write, Atomic
				c, k := next(), next()
				if k < 0 {
					break
				}
				c %= m.NCores
				k %= len(liveRec)
				access := [...]func(*Model, int, Line, int64) int64{(*Model).Read, (*Model).Write, (*Model).Atomic}[opcode%7-2]
				if a, b := access(rec, c, liveRec[k], now), access(ref, c, liveRef[k], now); a != b {
					t.Fatalf("step %d: op %d by core %d costs %d recycled, %d reference", step, opcode%7, c, a, b)
				}
			case 5: // AccessSet
				c, op := next(), next()
				a, b, ok := subset()
				if !ok || c < 0 || op < 0 {
					break
				}
				c %= m.NCores
				if x, y := rec.AccessSet(c, a, Op(op%3), now), ref.AccessSet(c, b, Op(op%3), now); x != y {
					t.Fatalf("step %d: AccessSet op %d by core %d costs %d recycled, %d reference", step, op%3, c, x, y)
				}
			case 6: // DMAWrite
				a, b, ok := subset()
				if !ok {
					break
				}
				rec.DMAWrite(a)
				ref.DMAWrite(b)
			}
		}
		if rec.Reads() != ref.Reads() || rec.Writes() != ref.Writes() || rec.RemoteTransfers() != ref.RemoteTransfers() {
			t.Errorf("counters diverged: reads %d/%d writes %d/%d remote %d/%d",
				rec.Reads(), ref.Reads(), rec.Writes(), ref.Writes(), rec.RemoteTransfers(), ref.RemoteTransfers())
		}
		if rec.LiveLines() != len(liveRec) {
			t.Errorf("LiveLines = %d, want the %d live handles", rec.LiveLines(), len(liveRec))
		}
		if rec.NumLines() > ref.NumLines() {
			t.Errorf("recycling directory holds %d slots, more than the %d the reference allocated", rec.NumLines(), ref.NumLines())
		}
	})
}

// Package mem is the cache-coherence cost model.
//
// The paper's central observation (§4.1) is that many-core scalability
// problems manifest as cache misses on shared, mutable cache lines: writes
// must invalidate all cached copies, reads of recently written data must
// fetch from the writer's cache, and both cost "about the same time as
// loading data from off-chip RAM (hundreds of cycles)".
//
// This package charges those costs. Kernel code paths name the shared lines
// they touch (a dentry's refcount word, a spin lock word, a device stats
// field); Model tracks, per line, which cores hold copies and who wrote
// last, and returns the cycle cost of each access using the latencies from
// internal/topo. It is a cost model, not a functional memory: lines carry no
// data, only coherence state.
//
// Lines have a lifetime. Each object frees exactly the lines it allocated
// when the kernel would free the object: a process's sampled page-table
// lines at exit (internal/proc), a socket inode's lines at release, and an
// unlinked dentry's and its inode's lines once no reference or path walk
// holds it (internal/vfs). Alloc reuses freed slots before it grows the
// directory, so a model stays at its live size however many messages a
// workload pushes through it. A reused line starts cold, exactly like a
// fresh one: no cached copies, clean, unlabelled. Real slab reuse can hand
// back memory that is still warm in some cache; modelling that would
// change every figure, and is deliberately not done.
package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/prof"
	"repro/internal/topo"
)

// Line is a handle for one 64-byte cache line.
type Line int32

// NoLine is the zero Line's invalid sentinel. Alloc never returns it, so a
// zero-valued struct field can be detected as "not allocated".
const NoLine Line = -1

// state is the directory entry for one line.
type state struct {
	sharers uint64   // bitmask of cores 0..63 holding a valid copy
	wide    []uint64 // sharer words for cores 64.., nil on <=64-core machines
	chips   uint64   // bitmask of chips with at least one sharer
	owner   int16    // core that last wrote, -1 if never written
	home    int8     // chip whose DRAM homes this line
	dirty   bool     // true if owner's copy is modified
	freed   bool     // true while the slot sits on the free list

	// busyUntil is when the line's current ownership transfer completes.
	// The coherence protocol serializes modifications of one line (§4.1:
	// "the cache coherence protocol serializes modifications to the same
	// cache line, which can prevent parallel speedup"; §4.3: "the
	// coherence hardware serializes the operations on a given counter").
	// Writers arriving earlier than busyUntil queue behind it.
	busyUntil int64
}

// initialLineCap pre-sizes the directory and its stats mirror. Larger
// models regrow them, but only until the workload's live line count
// peaks, since freed slots are reused first: a full 48-core fig4 point
// peaks at 18,293 lines (PK kernel; 3,744 stock).
const initialLineCap = 1024

// The sharer-set helpers below take the accessor's word index w and its
// bit within that word (w is always 0 on machines with at most 64 cores,
// so the first branch of each is the whole story for the paper's host).

// hasSharer reports whether the core at (w, bit) holds a valid copy.
func (s *state) hasSharer(w int, bit uint64) bool {
	if w == 0 {
		return s.sharers&bit != 0
	}
	return s.wide[w-1]&bit != 0
}

// addSharer records a valid copy for the core at (w, bit).
func (s *state) addSharer(w int, bit uint64) {
	if w == 0 {
		s.sharers |= bit
		return
	}
	s.wide[w-1] |= bit
}

// anySharer reports whether any core holds a valid copy.
func (s *state) anySharer() bool {
	if s.sharers != 0 {
		return true
	}
	for _, word := range s.wide {
		if word != 0 {
			return true
		}
	}
	return false
}

// onlySharer reports whether the core at (w, bit) is the sole sharer.
func (s *state) onlySharer(w int, bit uint64) bool {
	if w == 0 {
		if s.sharers != bit {
			return false
		}
	} else if s.sharers != 0 {
		return false
	}
	for i, word := range s.wide {
		want := uint64(0)
		if i == w-1 {
			want = bit
		}
		if word != want {
			return false
		}
	}
	return true
}

// othersCount counts sharers other than the core at (w, bit).
func (s *state) othersCount(w int, bit uint64) int {
	mask0 := s.sharers
	if w == 0 {
		mask0 &^= bit
	}
	n := bits.OnesCount64(mask0)
	for i, word := range s.wide {
		if i == w-1 {
			word &^= bit
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// setExclusive makes the core at (w, bit) the only sharer.
func (s *state) setExclusive(w int, bit uint64) {
	s.sharers = 0
	for i := range s.wide {
		s.wide[i] = 0
	}
	if w == 0 {
		s.sharers = bit
	} else {
		s.wide[w-1] = bit
	}
}

// Model is a directory-based coherence cost model for one machine.
type Model struct {
	mach  *topo.Machine
	lines []state
	stats []*prof.LineStats // per-line profile records, in lockstep with lines
	free  []Line            // freed slots, reused last-in first-out by Alloc

	// chipOf caches the core->chip mapping so the hot paths avoid the
	// placement-policy branch in topo.Machine.Chip.
	chipOf []int8

	// words is how many uint64 sharer words a line needs beyond the first
	// (0 on machines with at most 64 cores, the paper's host included).
	words int

	// Prof collects contention statistics for this machine.
	Prof *prof.Registry

	// Stats
	reads, writes   int64
	remoteTransfers int64 // fetches that crossed a chip boundary
}

// NewModel returns an empty model for the given machine.
func NewModel(m *topo.Machine) *Model {
	chipOf := make([]int8, m.NCores)
	for c := range chipOf {
		chipOf[c] = int8(m.Chip(c))
	}
	return &Model{
		mach:   m,
		lines:  make([]state, 0, initialLineCap),
		stats:  make([]*prof.LineStats, 0, initialLineCap),
		chipOf: chipOf,
		words:  (m.NCores+63)/64 - 1,
		Prof:   prof.New(),
	}
}

// Label attaches a profiler record to a line so its coherence traffic
// appears in contention reports.
func (md *Model) Label(l Line, name string) {
	md.st(l) // bounds check; stats is always in lockstep with lines
	if md.stats[l] == nil {
		md.stats[l] = md.Prof.Line(name)
	}
}

// Machine returns the machine this model simulates.
func (md *Model) Machine() *topo.Machine { return md.mach }

// Alloc allocates a fresh line homed in the DRAM of the given chip. It
// reuses the most recently freed slot if there is one, reset to exactly a
// fresh line's state: cold in every cache, clean, unlabelled, not busy.
func (md *Model) Alloc(homeChip int) Line {
	if homeChip < 0 || homeChip >= md.mach.Chips {
		panic(fmt.Sprintf("mem: home chip %d out of range", homeChip))
	}
	if n := len(md.free); n > 0 {
		l := md.free[n-1]
		md.free = md.free[:n-1]
		s := &md.lines[l]
		clear(s.wide)
		*s = state{wide: s.wide, owner: -1, home: int8(homeChip)}
		md.stats[l] = nil
		return l
	}
	s := state{owner: -1, home: int8(homeChip)}
	if md.words > 0 {
		s.wide = make([]uint64, md.words)
	}
	md.lines = append(md.lines, s)
	md.stats = append(md.stats, nil)
	return Line(len(md.lines) - 1)
}

// Free returns lines to the directory for reuse by later Allocs. The
// caller must hold no other handle to them: any access to a freed line,
// or a second Free, panics until Alloc hands the slot out again.
func (md *Model) Free(lines ...Line) {
	for _, l := range lines {
		md.st(l).freed = true
		md.free = append(md.free, l)
	}
}

// AllocLocal allocates a line homed on the chip of the given core, the
// default NUMA placement for data first touched by that core.
func (md *Model) AllocLocal(core int) Line {
	return md.Alloc(md.mach.Chip(core))
}

// AllocN allocates n lines homed on the given chip and returns them.
func (md *Model) AllocN(homeChip, n int) []Line {
	ls := make([]Line, n)
	for i := range ls {
		ls[i] = md.Alloc(homeChip)
	}
	return ls
}

func (md *Model) st(l Line) *state {
	if l < 0 || int(l) >= len(md.lines) {
		panic(fmt.Sprintf("mem: access to unallocated line %d", l))
	}
	s := &md.lines[l]
	if s.freed {
		panic(fmt.Sprintf("mem: access to freed line %d", l))
	}
	return s
}

// Read returns the cycle cost for core c reading line l at virtual time
// now, and updates the directory: c becomes a sharer; a dirty copy
// elsewhere is downgraded. A read arriving while the line's ownership is
// in flight waits for the transfer to finish but does not extend the busy
// window (reads of a settled line proceed in parallel).
func (md *Model) Read(c int, l Line, now int64) int64 {
	return md.read(c, c>>6, uint64(1)<<uint(c&63), int(md.chipOf[c]), l, now)
}

// read is Read with the per-access constants (sharer word + bit, chip)
// hoisted so batch charging resolves them once per set instead of once
// per line.
func (md *Model) read(c, w int, bit uint64, myChip int, l Line, now int64) int64 {
	s := md.st(l)
	md.reads++

	var wait int64
	if s.busyUntil > now && !s.hasSharer(w, bit) {
		wait = s.busyUntil - now
	}

	var cost int64
	switch {
	case s.hasSharer(w, bit):
		// Valid copy in this core's own cache.
		cost = md.mach.LatL1
	case s.dirty:
		// Must fetch the modified copy from the owner's cache.
		ownerChip := int(md.chipOf[s.owner])
		cost = md.mach.RemoteCacheLatency(myChip, ownerChip)
		if ownerChip != myChip {
			md.remoteTransfers++
		}
		s.dirty = false // downgraded to shared; owner keeps a copy
	case s.anySharer():
		// Clean copy in some cache; nearest provider wins.
		cost = md.fetchFromSharers(myChip, s)
	default:
		// Nobody caches it: DRAM access to the home node.
		cost = md.mach.DRAMLatency(myChip, int(s.home))
		if int(s.home) != myChip {
			md.remoteTransfers++
		}
	}
	s.addSharer(w, bit)
	s.chips |= 1 << uint(myChip)
	return wait + cost
}

// fetchFromSharers returns the latency of fetching a clean copy from the
// nearest sharing cache. The directory tracks sharers per chip (s.chips),
// and interconnect latency grows monotonically with hop distance, so the
// nearest provider is found by widening the hop radius over the chip
// bitmask instead of scanning all NCores sharer bits.
func (md *Model) fetchFromSharers(myChip int, s *state) int64 {
	if s.chips&(1<<uint(myChip)) != 0 {
		return md.mach.LatL3 // same-chip L3 hit
	}
	md.remoteTransfers++
	maxHops := md.mach.MaxHops()
	for d := 1; d <= maxHops; d++ {
		if md.mach.SharersAtDistance(myChip, d, s.chips) != 0 {
			// Equal hop distance means equal latency for every provider
			// at that radius.
			return md.mach.DRAMLatencyAtHops(d)
		}
	}
	panic("mem: fetchFromSharers on a line with no sharers")
}

// invalidatePerSharer is the extra cost charged to a writer for each remote
// copy the coherence protocol must find and invalidate.
const invalidatePerSharer = 20

// Write returns the cycle cost for core c writing line l at virtual time
// now, and updates the directory: all other copies are invalidated and c
// becomes exclusive owner. Modifications of one line serialize: a write
// arriving while a previous transfer is in flight queues behind it, and
// its own transfer extends the busy window. This is what makes a single
// contended counter a bottleneck no matter how "lock-free" it is.
func (md *Model) Write(c int, l Line, now int64) int64 {
	return md.write(c, c>>6, uint64(1)<<uint(c&63), int(md.chipOf[c]), l, now)
}

// write is Write with the per-access constants hoisted (see read).
func (md *Model) write(c, w int, bit uint64, myChip int, l Line, now int64) int64 {
	s := md.st(l)
	md.writes++

	var wait int64
	if s.busyUntil > now {
		wait = s.busyUntil - now
	}

	var cost int64
	switch {
	case s.dirty && s.owner == int16(c) && s.onlySharer(w, bit):
		// Already exclusive and modified: cache hit.
		cost = md.mach.LatL1
	case s.dirty:
		// Fetch modified data from previous owner, then own it.
		ownerChip := int(md.chipOf[s.owner])
		cost = md.mach.RemoteCacheLatency(myChip, ownerChip)
		if ownerChip != myChip {
			md.remoteTransfers++
		}
	case s.anySharer():
		cost = md.fetchFromSharers(myChip, s)
	default:
		cost = md.mach.DRAMLatency(myChip, int(s.home))
		if int(s.home) != myChip {
			md.remoteTransfers++
		}
	}
	// Invalidation traffic: proportional to the number of *other* caches
	// holding copies (§4.1: "the protocol finds the cached copies and
	// invalidates them").
	others := s.othersCount(w, bit)
	cost += int64(others) * invalidatePerSharer

	// Contention is not work-conserving: an op that had to queue keeps
	// retrying and re-requesting while it waits, consuming line/directory
	// bandwidth beyond its own transfer (§4.1: spin-lock-style traffic
	// "proportional to the number of waiting cores"; acquisition "not
	// scalable under contention"). The line therefore stays busy longer
	// than the winner's transfer, capped at 3x.
	occupancy := cost
	if wait > 0 {
		occupancy += min(wait, 2*cost)
	}

	s.busyUntil = now + wait + occupancy
	s.setExclusive(w, bit)
	s.chips = 1 << uint(myChip)
	s.owner = int16(c)
	s.dirty = true

	if st := md.stats[l]; st != nil {
		st.Writes++
		st.WaitCycles += wait
	}
	return wait + cost
}

// atomicRMWExtra is the extra cost of a locked read-modify-write over a
// plain store (bus lock + pipeline serialization).
const atomicRMWExtra = 10

// Atomic returns the cost of an atomic read-modify-write (e.g. atomic
// increment) by core c on line l at time now. The coherence cost
// dominates; the atomic adds a small constant. This is the paper's point
// in §4.3: "lock-free atomic increment ... do[es] not help, because the
// coherence hardware serializes the operations on a given counter."
func (md *Model) Atomic(c int, l Line, now int64) int64 {
	return md.Write(c, l, now) + atomicRMWExtra
}

// Op identifies the access kind of a batch charge.
type Op int

const (
	// OpRead charges plain loads.
	OpRead Op = iota
	// OpWrite charges plain stores (invalidate + own).
	OpWrite
	// OpAtomic charges locked read-modify-writes.
	OpAtomic
)

// LineSet is a reusable builder for the line sets passed to AccessSet.
// Kernel structures that touch the same group of lines on every operation
// (a dentry's compared fields, a process's sampled page-table lines) build
// the set once and re-charge it per operation without re-collecting.
type LineSet struct {
	lines []Line
}

// NewLineSet returns a set with room for n lines.
func NewLineSet(n int) *LineSet { return &LineSet{lines: make([]Line, 0, n)} }

// Add appends a line to the set and returns the set for chaining.
func (ls *LineSet) Add(l Line) *LineSet {
	ls.lines = append(ls.lines, l)
	return ls
}

// Merge appends every line of o, in order, and returns the set for
// chaining. Order and duplicates are preserved: charging the merged set is
// equivalent to charging the two sets back to back at the same virtual
// time.
func (ls *LineSet) Merge(o *LineSet) *LineSet {
	ls.lines = append(ls.lines, o.lines...)
	return ls
}

// Reset empties the set, keeping its capacity.
func (ls *LineSet) Reset() { ls.lines = ls.lines[:0] }

// Len returns the number of lines in the set.
func (ls *LineSet) Len() int { return len(ls.lines) }

// Lines exposes the underlying slice for AccessSet.
func (ls *LineSet) Lines() []Line { return ls.lines }

// AccessSet charges core c for op on every line of the set at virtual time
// now and returns the total cycle cost. It is equivalent to issuing the
// accesses one at a time at the same virtual time — one logical operation
// whose misses the hardware pipelines — but resolves the directory with the
// per-access constants (sharer bit, chip) computed once, which is what
// kernel paths that touch many lines per operation (fork's page-table
// sample, dlookup's field compare, a DMA buffer's payload) want.
func (md *Model) AccessSet(c int, lines []Line, op Op, now int64) int64 {
	w := c >> 6
	bit := uint64(1) << uint(c&63)
	myChip := int(md.chipOf[c])
	var total int64
	switch op {
	case OpRead:
		for _, l := range lines {
			total += md.read(c, w, bit, myChip, l, now)
		}
	case OpWrite:
		for _, l := range lines {
			total += md.write(c, w, bit, myChip, l, now)
		}
	case OpAtomic:
		for _, l := range lines {
			total += md.write(c, w, bit, myChip, l, now) + atomicRMWExtra
		}
	default:
		panic(fmt.Sprintf("mem: unknown op %d", op))
	}
	return total
}

// DMAWrite marks lines as freshly written by a DMA device: every cached
// copy is invalidated and the data now lives, clean, in the home node's
// DRAM. Devices are not cores, so no cycle cost is charged here — the cost
// shows up when a core next reads the line and must fetch it from the home
// chip's memory (local and cheap with per-core DMA pools, a cross-chip
// fetch with the stock node-0 pools, §4.5/§5.3).
func (md *Model) DMAWrite(lines []Line) {
	for _, l := range lines {
		s := md.st(l)
		s.sharers = 0
		for i := range s.wide {
			s.wide[i] = 0
		}
		s.chips = 0
		s.owner = -1
		s.dirty = false
		// The device write supersedes any in-flight CPU transfer: the next
		// reader pays exactly the home-DRAM fetch, never a stale busy wait.
		s.busyUntil = 0
	}
}

// Reads returns the total read count (for tests and reports).
func (md *Model) Reads() int64 { return md.reads }

// Writes returns the total write count.
func (md *Model) Writes() int64 { return md.writes }

// RemoteTransfers returns how many accesses crossed a chip boundary.
func (md *Model) RemoteTransfers() int64 { return md.remoteTransfers }

// NumLines returns the directory's size: the most lines that were ever
// live at once, since freed slots are reused before the directory grows.
func (md *Model) NumLines() int { return len(md.lines) }

// LiveLines returns how many lines are allocated and not freed.
func (md *Model) LiveLines() int { return len(md.lines) - len(md.free) }

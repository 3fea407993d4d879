package vfs

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// lifecycleCfgs are the two dentry layouts whose line ownership differs:
// stock embeds d_lock and d_count in the fields line, PK gives the lock,
// the sloppy count and the generation counter lines of their own.
var lifecycleCfgs = []struct {
	name string
	cfg  Config
}{{"stock", stockCfg()}, {"pk", pkCfg()}}

// fileLines is how many lines one file's dentry and inode own: fields
// (+ d_lock, sloppy central and per-core, generation in PK), i_size and
// i_mutex.
func fileLines(cfg Config, cores int) int {
	if cfg.SloppyDentryRef && cfg.LockFreeDlookup {
		return 1 + 1 + (1 + cores) + 1 + 2
	}
	return 1 + 2
}

// TestUnlinkedFileKeepsLinesUntilLastClose: an unlinked file that is still
// open keeps every line until the last Close, and an unlink of a file
// nobody holds frees its lines at once.
func TestUnlinkedFileKeepsLinesUntilLastClose(t *testing.T) {
	for _, tc := range lifecycleCfgs {
		const cores = 2
		e, fs := newFS(cores, tc.cfg)
		fs.MustMkdirAll("/spool")
		md := fs.md
		want := fileLines(tc.cfg, cores)
		e.Spawn(0, "p", 0, func(p *sim.Proc) {
			before := md.LiveLines()
			f1 := fs.Create(p, "/spool", "held")
			if got := md.LiveLines() - before; got != want {
				t.Errorf("%s: Create allocated %d lines, want %d", tc.name, got, want)
				return
			}
			f2 := fs.Open(p, "/spool/held")
			fs.Unlink(p, "/spool", "held")
			fs.Append(p, f1, 100) // the inode's lines are still live
			fs.Lseek(p, f2)
			fs.Close(p, f1)
			if f1.Dentry.freed || md.LiveLines() != before+want {
				t.Errorf("%s: unlinked file lost its lines with a File still open (live %d, want %d)",
					tc.name, md.LiveLines(), before+want)
			}
			fs.Close(p, f2)
			if !f1.Dentry.freed || md.LiveLines() != before {
				t.Errorf("%s: last Close of an unlinked file left %d lines live, want %d",
					tc.name, md.LiveLines(), before)
			}

			f3 := fs.Create(p, "/spool", "closed")
			fs.Close(p, f3)
			fs.Unlink(p, "/spool", "closed")
			if !f3.Dentry.freed || md.LiveLines() != before {
				t.Errorf("%s: unlink of an unreferenced file left %d lines live, want %d",
					tc.name, md.LiveLines(), before)
			}
		})
		e.Run()
	}
}

// TestWalkPinKeepsLinesAcrossConcurrentUnlink parks a Walk between its
// lookup of a child in the parent's children and its reference acquire,
// and unlinks that child meanwhile. The unlinker holds the child's d_lock
// (and, in PK, opens a generation write so the lock-free compare falls
// back to the lock), so the walker blocks inside dgetCompare. The child
// has no reference, but the walker's pin must keep its lines until the
// walker holds a reference of its own. Releasing that reference frees
// them: in the walker's Put, or inside Walk itself without holdFinal.
func TestWalkPinKeepsLinesAcrossConcurrentUnlink(t *testing.T) {
	for _, tc := range lifecycleCfgs {
		for _, hold := range []bool{true, false} {
			testWalkPin(t, fmt.Sprintf("%s/hold=%v", tc.name, hold), tc.cfg, hold)
		}
	}
}

func testWalkPin(t *testing.T, name string, cfg Config, hold bool) {
	t.Helper()
	e, fs := newFS(2, cfg)
	fs.MustMkdirAll("/spool")
	md := fs.md
	var d *Dentry
	var base int
	e.Spawn(0, "setup", 0, func(p *sim.Proc) {
		fs.Close(p, fs.Create(p, "/spool", "m"))
		d = fs.root.children["spool"].children["m"]
		base = md.LiveLines()

		e.Spawn(1, "walker", p.Now(), func(p *sim.Proc) {
			got := fs.Walk(p, "/spool/m", hold)
			if got != d || d.freed != !hold {
				t.Errorf("%s: walker got %p (freed %v), want the unlinked dentry, freed only without holdFinal",
					name, got, d.freed)
			}
			if hold {
				fs.Put(p, got)
			}
			if !d.freed || md.LiveLines() != base-fileLines(cfg, 2) {
				t.Errorf("%s: walker's last release of the unlinked dentry left %d lines live, want %d",
					name, md.LiveLines(), base-fileLines(cfg, 2))
			}
		})

		if d.gen != nil {
			d.gen.BeginWrite(p)
		}
		d.lock.Acquire(p)
		p.Idle(1_000_000) // the walker pins m and blocks on its d_lock
		if d.pins != 1 {
			t.Errorf("%s: walker is not parked between lookup and acquire (pins %d)", name, d.pins)
		}
		fs.Unlink(p, "/spool", "m")
		if !d.unlinked || d.freed || md.LiveLines() != base {
			t.Errorf("%s: unlink freed a dentry a parked Walk had pinned (freed %v, live %d, want %d)",
				name, d.freed, md.LiveLines(), base)
		}
		if d.gen != nil {
			d.gen.EndWrite(p)
		}
		d.lock.Release(p)
	})
	e.Run()
	if d == nil || !d.freed {
		t.Errorf("%s: dentry was never freed", name)
	}
}

func TestReleaseAnonFreesLines(t *testing.T) {
	for _, tc := range lifecycleCfgs {
		e, fs := newFS(2, tc.cfg)
		md := fs.md
		e.Spawn(0, "p", 0, func(p *sim.Proc) {
			before := md.LiveLines()
			a := fs.CreateAnon(p)
			if got := md.LiveLines() - before; got != 2 {
				t.Errorf("%s: CreateAnon allocated %d lines, want 2 (i_size, i_mutex)", tc.name, got)
			}
			fs.ReleaseAnon(p, a)
			if md.LiveLines() != before {
				t.Errorf("%s: ReleaseAnon left %d lines live, want %d", tc.name, md.LiveLines(), before)
			}
			defer func() {
				if r := recover(); r == nil || fmt.Sprint(r) != "vfs: release of released anon inode" {
					t.Errorf("%s: second ReleaseAnon panicked with %v", tc.name, r)
				}
			}()
			fs.ReleaseAnon(p, a)
		})
		e.Run()
	}
}

package vfs

import (
	"repro/internal/mem"
	"repro/internal/scount"
	"repro/internal/slock"
)

// Dentry is a directory cache entry. In the stock layout its spin lock,
// reference count, and compared fields share one cache line, so reference
// churn by many cores invalidates the line lookups need. In the PK layout
// the fields line is read-mostly (cheap to share), the refcount is sloppy,
// and lookups use the lock-free generation protocol (§4.3, §4.4).
type Dentry struct {
	// Name is this component's name.
	Name string

	parent   *Dentry
	children map[string]*Dentry
	inode    *Inode

	fieldsLine mem.Line        // d_name/d_inode/d_parent, compared by lookup
	fieldSet   *mem.LineSet    // the compared lines, prebuilt for batch charging
	lock       *slock.SpinLock // d_lock
	gen        *slock.Gen      // PK generation counter, nil in stock
	ref        scount.Counter  // d_count

	// pins counts Walks between looking d up in its parent's children
	// and holding a reference to it (model bookkeeping, cost-free).
	pins     int
	unlinked bool // removed from its parent by a completed Unlink
	freed    bool // lines returned to the directory
}

// Inode returns the dentry's inode.
func (d *Dentry) Inode() *Inode { return d.inode }

// Parent returns the parent dentry (nil for the root).
func (d *Dentry) Parent() *Dentry { return d.parent }

// NumChildren returns how many children the directory currently has.
func (d *Dentry) NumChildren() int { return len(d.children) }

// Ref exposes the reference counter (tests and statistics).
func (d *Dentry) Ref() scount.Counter { return d.ref }

// Lock exposes the per-dentry spin lock (tests and statistics).
func (d *Dentry) Lock() *slock.SpinLock { return d.lock }

// free returns the lines of d and of its inode to the directory. In the
// stock layout the lock and the reference count live on fieldsLine and
// own no line of their own.
func (d *Dentry) free(md *mem.Model) {
	d.freed = true
	md.Free(d.fieldsLine)
	d.lock.Free()
	if s, ok := d.ref.(*scount.Sloppy); ok {
		s.Free()
	}
	if d.gen != nil {
		d.gen.Free()
	}
	d.inode.free(md)
}

// Inode models the fields of a tmpfs inode the workloads touch.
type Inode struct {
	// Ino is the inode number.
	Ino int64
	// Size is the file size in bytes.
	Size int64

	isDir    bool
	sizeLine mem.Line     // i_size and neighbors, read by stat/lseek
	mu       *slock.Mutex // i_mutex
}

// IsDir reports whether the inode is a directory.
func (i *Inode) IsDir() bool { return i.isDir }

// Mutex exposes the inode mutex (tests and statistics).
func (i *Inode) Mutex() *slock.Mutex { return i.mu }

// free returns the inode's lines to the directory.
func (i *Inode) free(md *mem.Model) {
	md.Free(i.sizeLine)
	i.mu.Free()
}

package kernel

import "strings"

// Fix describes one row of Figure 1: a kernel scalability problem, the
// applications that trigger it, and the PK solution.
type Fix struct {
	// Name is a short identifier (used by the CLI and ablation benches).
	Name string
	// Problem is the bottleneck description from Figure 1.
	Problem string
	// Solution is the fix description from Figure 1.
	Solution string
	// Apps lists the MOSBENCH applications affected.
	Apps []string
	// Enable sets this fix's flag on a config.
	Enable func(*Config)
	// Enabled reports whether the fix is on in a config.
	Enabled func(Config) bool
}

// Fixes is the Figure 1 registry, in the paper's order.
var Fixes = []Fix{
	{
		Name:     "parallel-accept",
		Problem:  "Concurrent accept system calls contend on shared socket fields.",
		Solution: "User per-core backlog queues for listening sockets.",
		Apps:     []string{"Apache"},
		Enable:   func(c *Config) { c.ParallelAccept = true },
		Enabled:  func(c Config) bool { return c.ParallelAccept },
	},
	{
		Name:     "dentry-ref",
		Problem:  "File name resolution contends on directory entry reference counts.",
		Solution: "Use sloppy counters to reference count directory entry objects.",
		Apps:     []string{"Apache", "Exim"},
		Enable:   func(c *Config) { c.SloppyDentryRef = true },
		Enabled:  func(c Config) bool { return c.SloppyDentryRef },
	},
	{
		Name:     "vfsmount-ref",
		Problem:  "Walking file name paths contends on mount point reference counts.",
		Solution: "Use sloppy counters for mount point objects.",
		Apps:     []string{"Apache", "Exim"},
		Enable:   func(c *Config) { c.SloppyVfsmountRef = true },
		Enabled:  func(c Config) bool { return c.SloppyVfsmountRef },
	},
	{
		Name:     "dst-ref",
		Problem:  "IP packet transmission contends on routing table entries.",
		Solution: "Use sloppy counters for IP routing table entries.",
		Apps:     []string{"memcached", "Apache"},
		Enable:   func(c *Config) { c.SloppyDstRef = true },
		Enabled:  func(c Config) bool { return c.SloppyDstRef },
	},
	{
		Name:     "proto-mem",
		Problem:  "Cores contend on counters for tracking protocol memory consumption.",
		Solution: "Use sloppy counters for protocol usage counting.",
		Apps:     []string{"memcached", "Apache"},
		Enable:   func(c *Config) { c.SloppyProtoMem = true },
		Enabled:  func(c Config) bool { return c.SloppyProtoMem },
	},
	{
		Name:     "dentry-lock",
		Problem:  "Walking file name paths contends on per-directory entry spin locks.",
		Solution: "Use a lock-free protocol in dlookup for checking filename matches.",
		Apps:     []string{"Apache", "Exim"},
		Enable:   func(c *Config) { c.LockFreeDlookup = true },
		Enabled:  func(c Config) bool { return c.LockFreeDlookup },
	},
	{
		Name:     "mount-lock",
		Problem:  "Resolving path names to mount points contends on a global spin lock.",
		Solution: "Use per-core mount table caches.",
		Apps:     []string{"Apache", "Exim"},
		Enable:   func(c *Config) { c.PerCoreMountCache = true },
		Enabled:  func(c Config) bool { return c.PerCoreMountCache },
	},
	{
		Name:     "open-list",
		Problem:  "Cores contend on a per-super block list that tracks open files.",
		Solution: "Use per-core open file lists for each super block that has open files.",
		Apps:     []string{"Apache", "Exim"},
		Enable:   func(c *Config) { c.PerCoreOpenList = true },
		Enabled:  func(c Config) bool { return c.PerCoreOpenList },
	},
	{
		Name:     "dma-buffers",
		Problem:  "DMA memory allocations contend on the memory node 0 spin lock.",
		Solution: "Allocate Ethernet device DMA buffers from the local memory node.",
		Apps:     []string{"memcached", "Apache"},
		Enable:   func(c *Config) { c.LocalDMABuf = true },
		Enabled:  func(c Config) bool { return c.LocalDMABuf },
	},
	{
		Name:     "netdev-false-sharing",
		Problem:  "False sharing causes contention for read-only structure fields.",
		Solution: "Place read-only fields on their own cache lines.",
		Apps:     []string{"memcached", "Apache", "PostgreSQL"},
		Enable:   func(c *Config) { c.NetDevFalseSharingFix = true },
		Enabled:  func(c Config) bool { return c.NetDevFalseSharingFix },
	},
	{
		Name:     "page-false-sharing",
		Problem:  "False sharing causes contention for read-mostly structure fields.",
		Solution: "Place read-only fields on their own cache lines.",
		Apps:     []string{"Exim"},
		Enable:   func(c *Config) { c.PageFalseSharingFix = true },
		Enabled:  func(c Config) bool { return c.PageFalseSharingFix },
	},
	{
		Name:     "inode-lists",
		Problem:  "Cores contend on global locks protecting lists used to track inodes.",
		Solution: "Avoid acquiring the locks when not necessary.",
		Apps:     []string{"memcached", "Apache"},
		Enable:   func(c *Config) { c.InodeListAvoidLock = true },
		Enabled:  func(c Config) bool { return c.InodeListAvoidLock },
	},
	{
		Name:     "dcache-lists",
		Problem:  "Cores contend on global locks protecting lists used to track dentrys.",
		Solution: "Avoid acquiring the locks when not necessary.",
		Apps:     []string{"memcached", "Apache"},
		Enable:   func(c *Config) { c.DcacheListAvoidLock = true },
		Enabled:  func(c Config) bool { return c.DcacheListAvoidLock },
	},
	{
		Name:     "lseek-mutex",
		Problem:  "Cores contend on a per-inode mutex in lseek.",
		Solution: "Use atomic reads to eliminate the need to acquire the mutex.",
		Apps:     []string{"PostgreSQL"},
		Enable:   func(c *Config) { c.AtomicLseek = true },
		Enabled:  func(c Config) bool { return c.AtomicLseek },
	},
	{
		Name:     "superpage-locking",
		Problem:  "Super-page soft page faults contend on a per-process mutex.",
		Solution: "Protect each super-page memory mapping with its own mutex.",
		Apps:     []string{"Metis"},
		Enable:   func(c *Config) { c.PerMappingSuperPageMutex = true },
		Enabled:  func(c Config) bool { return c.PerMappingSuperPageMutex },
	},
	{
		Name:     "superpage-zeroing",
		Problem:  "Zeroing super-pages flushes the contents of on-chip caches.",
		Solution: "Use non-caching instructions to zero the contents of super-pages.",
		Apps:     []string{"Metis"},
		Enable:   func(c *Config) { c.NoncachingSuperPageZero = true },
		Enabled:  func(c Config) bool { return c.NoncachingSuperPageZero },
	},
}

// FixByName returns the named fix, or nil.
func FixByName(name string) *Fix {
	for i := range Fixes {
		if Fixes[i].Name == name {
			return &Fixes[i]
		}
	}
	return nil
}

// String renders c canonically, the form the sweep's cell specs key on:
// "stock", "pk", or the enabled fixes' names in Fixes order joined by "+",
// with "mcs-mount-lock" appended when ScalableMountLock is set. Equal
// configs render identically and different configs differently.
func (c Config) String() string {
	var names []string
	for _, f := range Fixes {
		if f.Enabled(c) {
			names = append(names, f.Name)
		}
	}
	if len(names) == len(Fixes) {
		names = []string{"pk"}
	}
	if c.ScalableMountLock {
		names = append(names, "mcs-mount-lock")
	}
	if len(names) == 0 {
		return "stock"
	}
	return strings.Join(names, "+")
}

package kernel

import (
	"reflect"
	"testing"

	"repro/internal/topo"
)

func TestStockHasNoFixes(t *testing.T) {
	c := Stock()
	for _, f := range Fixes {
		if f.Enabled(c) {
			t.Errorf("fix %q enabled in stock config", f.Name)
		}
	}
}

func TestPKHasAllFixes(t *testing.T) {
	c := PK()
	for _, f := range Fixes {
		if !f.Enabled(c) {
			t.Errorf("fix %q not enabled in PK config", f.Name)
		}
	}
}

func TestSixteenFixes(t *testing.T) {
	if len(Fixes) != 16 {
		t.Errorf("fix registry has %d entries; the paper lists 16", len(Fixes))
	}
}

func TestEnableMatchesEnabled(t *testing.T) {
	for _, f := range Fixes {
		c := Stock()
		f.Enable(&c)
		if !f.Enabled(c) {
			t.Errorf("fix %q: Enable did not set the flag Enabled reads", f.Name)
		}
	}
}

func TestEachFixTogglesDistinctFlag(t *testing.T) {
	// Enabling all fixes one at a time must produce the PK config:
	// no two registry entries may share a flag, and none may be missing.
	c := Stock()
	for _, f := range Fixes {
		f.Enable(&c)
	}
	if c != PK() {
		t.Errorf("enabling every fix = %+v, want PK %+v", c, PK())
	}
	// And each fix must flip exactly one field: enabling fix i on stock
	// must differ from stock.
	for _, f := range Fixes {
		c := Stock()
		f.Enable(&c)
		if c == Stock() {
			t.Errorf("fix %q did not change the config", f.Name)
		}
	}
}

func TestFixByName(t *testing.T) {
	if FixByName("lseek-mutex") == nil {
		t.Error("FixByName(lseek-mutex) = nil")
	}
	if FixByName("no-such-fix") != nil {
		t.Error("FixByName(no-such-fix) != nil")
	}
}

func TestBootKernel(t *testing.T) {
	k := New(topo.New(48), PK(), 1)
	if k.FS == nil || k.Procs == nil || k.Engine == nil {
		t.Fatal("kernel boot left nil subsystems")
	}
	if !k.FS.Config().AtomicLseek {
		t.Error("PK kernel's FS did not receive AtomicLseek")
	}
	stack := k.NewStack(nil)
	if stack == nil {
		t.Fatal("NewStack returned nil")
	}
	as := k.NewAddressSpace(0)
	if as == nil {
		t.Fatal("NewAddressSpace returned nil")
	}
}

func TestConfigProjections(t *testing.T) {
	c := PK()
	if !c.VFS().SloppyDentryRef || !c.Net().SloppyDstRef || !c.MM().NoncachingSuperPageZero {
		t.Error("config projections dropped flags")
	}
	s := Stock()
	if s.VFS().SloppyDentryRef || s.Net().ParallelAccept || s.MM().PageFalseSharingFix {
		t.Error("stock projections enabled flags")
	}
}

// TestConfigStringIsCanonical: the sweep cache keys cells on
// Config.String, so every field must reach it. Turning any one field on
// (on stock, and off on PK) yields a string no other config produces.
func TestConfigStringIsCanonical(t *testing.T) {
	if got := Stock().String(); got != "stock" {
		t.Errorf("Stock().String() = %q, want stock", got)
	}
	if got := PK().String(); got != "pk" {
		t.Errorf("PK().String() = %q, want pk", got)
	}
	seen := map[string]string{"stock": "stock", "pk": "pk"}
	for _, base := range []Config{Stock(), PK()} {
		n := reflect.TypeOf(base).NumField()
		for i := 0; i < n; i++ {
			c := base
			f := reflect.ValueOf(&c).Elem().Field(i)
			f.SetBool(!f.Bool())
			name := reflect.TypeOf(c).Field(i).Name
			s := c.String()
			if prev, dup := seen[s]; dup {
				t.Errorf("toggling %s renders %q, the same as %s", name, s, prev)
			}
			seen[s] = name
		}
	}
}

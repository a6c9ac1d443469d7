package cache

import "testing"

func tinyHierarchy(shared bool) HierarchyConfig {
	return HierarchyConfig{
		Cores:    2,
		L1:       Config{SizeBytes: 4 * 64, LineBytes: 64, Ways: 2},
		L2:       Config{SizeBytes: 32 * 64, LineBytes: 64, Ways: 4},
		SharedL2: shared,
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" || Memory.String() != "memory" {
		t.Fatal("Level strings wrong")
	}
	if Level(9).String() != "Level(9)" {
		t.Fatal("unknown level string wrong")
	}
}

func TestHierarchyValidation(t *testing.T) {
	bad := tinyHierarchy(true)
	bad.L1.LineBytes = 32
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatched line sizes did not panic")
			}
		}()
		NewHierarchy(bad)
	}()

	bad2 := tinyHierarchy(true)
	bad2.Cores = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero cores did not panic")
			}
		}()
		NewHierarchy(bad2)
	}()
}

func TestAccessLevels(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(true))
	if got := h.Access(0, 0x1000); got != Memory {
		t.Fatalf("cold access = %v, want memory", got)
	}
	if got := h.Access(0, 0x1000); got != L1 {
		t.Fatalf("warm access = %v, want L1", got)
	}
	// Knock the line out of the tiny L1 with conflicting lines, keeping it
	// in L2: next access must be an L2 hit.
	l1sets := uint64(h.Config().L1.Sets())
	for i := uint64(1); i <= 2; i++ {
		h.Access(0, 0x1000+i*l1sets*64)
	}
	if got := h.Access(0, 0x1000); got != L2 {
		t.Fatalf("L1-evicted access = %v, want L2", got)
	}
}

func TestSharedL2VisibleAcrossCores(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(true))
	h.Access(0, 0x2000)
	// Different core, same line: misses its own L1 but hits the shared L2.
	if got := h.Access(1, 0x2000); got != L2 {
		t.Fatalf("cross-core access = %v, want L2 (shared)", got)
	}
}

func TestPrivateL2NotShared(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(false))
	h.Access(0, 0x2000)
	if got := h.Access(1, 0x2000); got != Memory {
		t.Fatalf("cross-core access with private L2s = %v, want memory", got)
	}
	if h.L2For(0) == h.L2For(1) {
		t.Fatal("private L2s alias")
	}
}

func TestSharedL2Identity(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(true))
	if h.L2For(0) != h.L2For(1) {
		t.Fatal("shared L2 not shared")
	}
}

func TestSharedL2Contention(t *testing.T) {
	// Two cores streaming disjoint regions bigger than half the L2 must
	// evict each other; the same stream with a private L2 each does not.
	shared := NewHierarchy(tinyHierarchy(true))
	private := NewHierarchy(tinyHierarchy(false))
	lines := uint64(24) // 24 lines each; L2 holds 32
	for _, h := range []*Hierarchy{shared, private} {
		for pass := 0; pass < 10; pass++ {
			for i := uint64(0); i < lines; i++ {
				h.Access(0, i*64)
				h.Access(1, (1<<20)+i*64)
			}
		}
	}
	sharedMisses := shared.L2For(0).Stats().Misses
	privMisses := private.L2For(0).Stats().Misses + private.L2For(1).Stats().Misses
	if sharedMisses <= privMisses {
		t.Fatalf("shared L2 misses %d not greater than private %d under contention",
			sharedMisses, privMisses)
	}
}

type countListener struct{ fills, evicts int }

func (c *countListener) OnFill(core int, lineAddr uint64, set, way int) { c.fills++ }
func (c *countListener) OnEvict(lineAddr uint64, set, way int)          { c.evicts++ }

// TestSetL2ListenerSharedAndPrivate attaches one listener to every L2 the
// way the engine wires its signature unit, and checks that fills from both
// cores reach it whether the L2 is shared or private.
func TestSetL2ListenerSharedAndPrivate(t *testing.T) {
	for _, shared := range []bool{true, false} {
		h := NewHierarchy(tinyHierarchy(shared))
		cl := &countListener{}
		for _, l2 := range h.L2s() {
			l2.SetListener(cl)
		}
		h.Access(0, 0)
		h.Access(1, 1<<16)
		if cl.fills != 2 {
			t.Fatalf("shared=%v: listener saw %d fills, want 2", shared, cl.fills)
		}
	}
}

func TestResetStats(t *testing.T) {
	h := NewHierarchy(tinyHierarchy(true))
	h.Access(0, 0)
	h.ResetStats()
	if h.L1For(0).Stats().Accesses != 0 || h.L2For(0).Stats().Accesses != 0 {
		t.Fatal("ResetStats left counters")
	}
}

func TestPaperMachineConfigs(t *testing.T) {
	duo := CoreDuoConfig()
	if duo.Cores != 2 || !duo.SharedL2 {
		t.Fatalf("CoreDuoConfig = %+v", duo)
	}
	if duo.L2.SizeBytes != 4<<20 || duo.L2.Ways != 16 || duo.L2.LineBytes != 64 {
		t.Fatalf("CoreDuo L2 = %+v, want 4MB 16-way 64B", duo.L2)
	}
	xeon := XeonSMPConfig()
	if xeon.SharedL2 {
		t.Fatal("XeonSMP must have private L2s")
	}
	if xeon.L2.SizeBytes != 2<<20 || xeon.L2.Ways != 8 {
		t.Fatalf("Xeon L2 = %+v, want 2MB 8-way", xeon.L2)
	}
	quad := QuadCoreConfig()
	if quad.Cores != 4 || !quad.SharedL2 {
		t.Fatalf("QuadCoreConfig = %+v", quad)
	}
	// All three must construct without panicking.
	NewHierarchy(duo)
	NewHierarchy(xeon)
	NewHierarchy(quad)
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(CoreDuoConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(i&1, uint64(i%100000)*64)
	}
}

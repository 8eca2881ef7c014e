package kernel

import (
	"testing"

	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

// These tests pin MMU.SetRoot's documented contract ("callers must flush")
// at the kernel's call sites: after any satp switch, no TLB level, no PWC
// entry and no L1 last-hit memo may serve a translation from the previous
// address space.

// TestSwitchToNeverServesStaleTranslation context-switches between two
// address spaces that map the same VA to different PAs and asserts the
// post-switch access always resolves in the new space.
func TestSwitchToNeverServesStaleTranslation(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	ea := spawnEnv(t, k)
	va := ea.P.Heap()
	if err := ea.Store64(va, 0xaaaa); err != nil {
		t.Fatal(err)
	}
	resA, err := mmuAccess(k.Mach.MMU, va, perm.Read, perm.U, k.Mach.Core.Now)
	if err != nil || resA.Faulted() {
		t.Fatalf("warm access in A: %+v, %v", resA, err)
	}

	eb := spawnEnv(t, k) // NewEnv switches to B
	if err := eb.Store64(va, 0xbbbb); err != nil {
		t.Fatal(err)
	}
	resB, err := mmuAccess(k.Mach.MMU, va, perm.Read, perm.U, k.Mach.Core.Now)
	if err != nil || resB.Faulted() {
		t.Fatalf("warm access in B: %+v, %v", resB, err)
	}
	if resA.PA == resB.PA {
		t.Fatalf("test needs distinct frames, both spaces map %v to %v", va, resA.PA)
	}

	// Bounce between the spaces; each post-switch access must see its own
	// frame, never the other's.
	for i := 0; i < 3; i++ {
		if err := k.SwitchTo(ea.P.PID); err != nil {
			t.Fatal(err)
		}
		got, err := mmuAccess(k.Mach.MMU, va, perm.Read, perm.U, k.Mach.Core.Now)
		if err != nil || got.Faulted() {
			t.Fatalf("post-switch access in A: %+v, %v", got, err)
		}
		if got.PA != resA.PA {
			t.Fatalf("A sees PA %v, want %v (stale B translation?)", got.PA, resA.PA)
		}
		if err := k.SwitchTo(eb.P.PID); err != nil {
			t.Fatal(err)
		}
		got, err = mmuAccess(k.Mach.MMU, va, perm.Read, perm.U, k.Mach.Core.Now)
		if err != nil || got.Faulted() {
			t.Fatalf("post-switch access in B: %+v, %v", got, err)
		}
		if got.PA != resB.PA {
			t.Fatalf("B sees PA %v, want %v (stale A translation?)", got.PA, resB.PA)
		}
	}
}

// TestSpawnAfterExitNeverServesStaleTranslation exercises the Spawn
// adoption site (k.current < 0): after Exit leaves the machine idle, the
// next Spawn adopts the new root, and an access to a VA the dead process
// had warmed must page-fault on the fresh table — not hit the dead
// process's TLB entry.
func TestSpawnAfterExitNeverServesStaleTranslation(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	ea := spawnEnv(t, k)
	va := ea.P.Heap()
	if err := ea.Store64(va, 0xdead); err != nil {
		t.Fatal(err)
	}
	stale, err := mmuAccess(k.Mach.MMU, va, perm.Read, perm.U, k.Mach.Core.Now)
	if err != nil || stale.Faulted() {
		t.Fatalf("warm access in A: %+v, %v", stale, err)
	}
	if err := k.Exit(ea.P.PID); err != nil {
		t.Fatal(err)
	}

	pb, err := k.Spawn(Image{Name: "b", TextPages: 16, DataPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if k.current != pb.PID {
		t.Fatalf("spawn after exit must adopt the new process, current = %d", k.current)
	}
	got, err := mmuAccess(k.Mach.MMU, va, perm.Read, perm.U, k.Mach.Core.Now)
	if err != nil {
		t.Fatal(err)
	}
	if !got.PageFault {
		t.Fatalf("access after adoption must page-fault on B's fresh table, got %+v (stale PA was %v)", got, stale.PA)
	}
}

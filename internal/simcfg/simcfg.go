// Package simcfg is the single machine-configuration definition shared by
// every entry point that assembles a simulated machine: the replay engine
// (internal/replay), the experiment harness (internal/bench), the three
// CLIs (cmd/hpmpsim, cmd/hpmptrace, cmd/hpmpsimd), and the HTTP job API
// (internal/serve). Before this package each of those hand-rolled its own
// platform/mode/capacity struct and validation; now there is exactly one
// validated type a service endpoint can accept.
//
// Tri-state cache-geometry semantics (the internal representation, shared
// with the JSON wire format):
//
//	> 0  override the platform's entry count
//	  0  keep the platform default
//	< 0  the structure is absent (zero capacity)
//
// except PMPTWCache, where the platform builds the cache disabled (the
// paper's default methodology), so:
//
//	> 0  enable the cache with that many entries
//	  0  platform default structure, built but disabled
//	< 0  zero-capacity cache (structurally absent)
//
// The CLI flag surface uses the historical PR 8 convention instead
// (0 = absent, < 0 = platform default); Flags.Machine performs the
// remapping so every command line keeps its documented meaning.
package simcfg

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
)

// Mode selects the physical-isolation flavour a machine runs under. It
// mirrors the paper's comparison set: no isolation (Fig. 2-a), PMP
// segments (2-b), PMP tables (2-c), and HPMP (Fig. 4: tables plus the
// page-table pool riding a segment).
type Mode string

const (
	ModeNone Mode = "none"
	ModePMP  Mode = "pmp"
	ModePMPT Mode = "pmpt"
	ModeHPMP Mode = "hpmp"
)

// Modes lists every valid Mode, in comparison order.
var Modes = []Mode{ModeNone, ModePMP, ModePMPT, ModeHPMP}

// MonitorMode maps an isolation mode onto the security monitor's mode
// enum. ModeNone has no monitor (the machine runs without a TEE), so the
// second return is false for it and for unknown modes.
func (m Mode) MonitorMode() (monitor.Mode, bool) {
	switch m {
	case ModePMP:
		return monitor.ModePMP, true
	case ModePMPT:
		return monitor.ModePMPT, true
	case ModeHPMP:
		return monitor.ModeHPMP, true
	}
	return 0, false
}

// MinMemSize is the smallest simulated DRAM size any entry point accepts.
// The monitor's table pool, the kernel's page-table pool, the replay
// engine's two 16 MiB top-of-memory pools, and the workload heaps all
// carve fixed regions out of DRAM; below this floor machines fail deep
// inside the allocators instead of at the config.
const MinMemSize = 64 * addr.MiB

// PoolAlign is the DRAM-size granularity: the replay engine carves two
// 16 MiB NAPOT pools off the top of memory, so every machine size is kept
// replay-capable by construction.
const PoolAlign = 32 * addr.MiB

// Geometry and memory maxima. Validate rejects anything larger before a
// machine is assembled: the TLBs and caches are allocated up front, so an
// unbounded request (say a 2^40-entry PWC) ends in an unrecoverable
// out-of-memory crash of the whole process instead of an error. Each bound
// leaves wide headroom over the paper's largest configuration — Table 1's
// 1024-entry L2 TLB, Fig. 17's 32-entry PWC, §7's 8-entry PMPTW cache, the
// 16 GB evaluation DRAM — and over every committed experiment.
const (
	MaxL2TLBEntries = 1 << 16
	MaxPWCEntries   = 1 << 10
	MaxPMPTWCache   = 1 << 10
	MaxMemSize      = 64 * addr.GiB
)

// Machine is the unified machine configuration. The zero value is not a
// valid machine; start from Default (or call WithDefaults on a partially
// filled value, as the JSON decoder path does).
type Machine struct {
	// Platform is "rocket" (in-order) or "boom" (out-of-order).
	Platform string
	// Mode is the isolation mode.
	Mode Mode
	// MemSize is the machine's DRAM size in bytes. On the JSON wire format
	// it travels as "mem_mib".
	MemSize uint64
	// L2TLBEntries / PWCEntries override the platform's geometry
	// (tri-state, see the package comment).
	L2TLBEntries int
	PWCEntries   int
	// PMPTWCache sizes/enables the permission-table walker cache
	// (tri-state with the enablement twist, see the package comment).
	PMPTWCache int
	// TableDepth is the permission-table depth for ModePMPT/ModeHPMP:
	// 0 or 2 = the base 2-level table, 3/4 = the §4.3 Mode-field extension.
	TableDepth int
	// Scalar drains access blocks through the scalar mmu.Access entry
	// point — one call per reference with the same per-access accounting —
	// instead of mmu.AccessBatch. The differential matrix uses it to prove
	// both entry points byte-identical on every machine config.
	Scalar bool
}

// Default is the canonical machine: the in-order platform under full HPMP
// isolation at the evaluation's default memory size.
func Default() Machine { return Machine{}.WithDefaults() }

// WithDefaults fills the empty identification fields (platform, mode,
// memory size) with the canonical defaults, leaving everything explicit
// untouched. The tri-state geometry fields already encode "default" as
// zero, so they pass through unchanged.
func (m Machine) WithDefaults() Machine {
	if m.Platform == "" {
		m.Platform = "rocket"
	}
	if m.Mode == "" {
		m.Mode = ModeHPMP
	}
	if m.MemSize == 0 {
		m.MemSize = 512 * addr.MiB
	}
	return m
}

// Validate rejects configurations no entry point can assemble. It is the
// one platform/mode/capacity validation path in the tree.
func (m Machine) Validate() error {
	switch m.Platform {
	case "rocket", "boom":
	default:
		return fmt.Errorf("simcfg: unknown platform %q (want rocket or boom)", m.Platform)
	}
	switch m.Mode {
	case ModeNone, ModePMP, ModePMPT, ModeHPMP:
	default:
		return fmt.Errorf("simcfg: unknown isolation mode %q (want none, pmp, pmpt or hpmp)", m.Mode)
	}
	if m.MemSize < MinMemSize {
		return fmt.Errorf("simcfg: mem size %d MiB is below the %d MiB minimum",
			m.MemSize/addr.MiB, MinMemSize/addr.MiB)
	}
	if m.MemSize%PoolAlign != 0 {
		return fmt.Errorf("simcfg: mem size must be a multiple of %d MiB", PoolAlign/addr.MiB)
	}
	if m.MemSize > MaxMemSize {
		return fmt.Errorf("simcfg: mem size %d MiB exceeds the %d MiB maximum",
			m.MemSize/addr.MiB, MaxMemSize/addr.MiB)
	}
	for _, g := range []struct {
		name     string
		n, limit int
	}{
		{"l2tlb", m.L2TLBEntries, MaxL2TLBEntries},
		{"pwc", m.PWCEntries, MaxPWCEntries},
		{"pmptw_cache", m.PMPTWCache, MaxPMPTWCache},
	} {
		if g.n > g.limit {
			return fmt.Errorf("simcfg: %s %d exceeds the maximum of %d entries", g.name, g.n, g.limit)
		}
	}
	if m.L2TLBEntries > 0 && !addr.IsPow2(uint64(m.L2TLBEntries)) {
		return fmt.Errorf("simcfg: l2tlb %d must be a power of two (the L2 TLB is direct-mapped)", m.L2TLBEntries)
	}
	switch m.TableDepth {
	case 0, 2, 3, 4:
	default:
		return fmt.Errorf("simcfg: table depth %d (want 2, 3 or 4)", m.TableDepth)
	}
	if m.TableDepth > 2 && m.Mode != ModePMPT && m.Mode != ModeHPMP {
		return fmt.Errorf("simcfg: table depth %d needs a permission-table mode (pmpt or hpmp)", m.TableDepth)
	}
	return nil
}

// String renders the config compactly ("rocket/hpmp 512MiB depth=2 ...");
// the CLIs print it and metrics notes embed it.
func (m Machine) String() string {
	s := fmt.Sprintf("%s/%s %dMiB", m.Platform, m.Mode, m.MemSize/addr.MiB)
	if m.TableDepth > 2 {
		s += fmt.Sprintf(" depth=%d", m.TableDepth)
	}
	if m.L2TLBEntries != 0 {
		s += fmt.Sprintf(" l2tlb=%d", m.L2TLBEntries)
	}
	if m.PWCEntries != 0 {
		s += fmt.Sprintf(" pwc=%d", m.PWCEntries)
	}
	if m.PMPTWCache != 0 {
		s += fmt.Sprintf(" pmptw-cache=%d", m.PMPTWCache)
	}
	if m.Scalar {
		s += " scalar"
	}
	return s
}

// ApplyGeometry folds the tri-state cache-geometry overrides into a
// platform description. Idempotent, so callers may apply it to an
// already-adjusted platform.
func (m Machine) ApplyGeometry(p *cpu.Platform) {
	if m.L2TLBEntries > 0 {
		p.MMU.L2TLBEntries = m.L2TLBEntries
	} else if m.L2TLBEntries < 0 {
		p.MMU.L2TLBEntries = 0
	}
	if m.PWCEntries > 0 {
		p.MMU.PWCEntries = m.PWCEntries
	} else if m.PWCEntries < 0 {
		p.MMU.PWCEntries = 0
	}
	if m.PMPTWCache > 0 {
		p.PMPTWCacheEntries = m.PMPTWCache
	} else if m.PMPTWCache < 0 {
		p.PMPTWCacheEntries = 0
	}
}

// BasePlatform returns the named platform description before geometry
// overrides.
func (m Machine) BasePlatform() cpu.Platform {
	if m.Platform == "boom" {
		return cpu.BOOMPlatform()
	}
	return cpu.RocketPlatform()
}

// Assemble builds the machine this config describes: named platform,
// geometry overrides, checker presence (ModeNone machines carry no
// isolation hardware), and PMPTW-cache enablement. Isolation *state*
// (segments, permission tables) is the caller's job — the monitor programs
// it on live systems, the replay engine on replays.
func (m Machine) Assemble() *cpu.Machine {
	return m.AssembleOn(m.BasePlatform())
}

// AssembleOn is Assemble over a caller-chosen platform base — the
// experiment harness picks Rocket or BOOM per experiment but still wants
// this config's geometry overrides and cache enablement applied.
func (m Machine) AssembleOn(plat cpu.Platform) *cpu.Machine {
	m.ApplyGeometry(&plat)
	if m.Mode == ModeNone {
		return cpu.NewMachineNoIsolation(plat, m.MemSize)
	}
	mach := cpu.NewMachine(plat, m.MemSize)
	if m.PMPTWCache > 0 && mach.PMPTWCache != nil {
		mach.PMPTWCache.Enabled = true
	}
	return mach
}

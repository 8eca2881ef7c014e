package simcfg

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"hpmp/internal/addr"
)

func TestDefaultValidates(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatalf("Default() must validate: %v", err)
	}
	if m.Platform != "rocket" || m.Mode != ModeHPMP || m.MemSize != 512*addr.MiB {
		t.Fatalf("unexpected default: %+v", m)
	}
}

func TestWithDefaultsKeepsExplicit(t *testing.T) {
	m := Machine{Platform: "boom", Mode: ModePMPT, MemSize: 64 * addr.MiB, TableDepth: 3}.WithDefaults()
	if m.Platform != "boom" || m.Mode != ModePMPT || m.MemSize != 64*addr.MiB || m.TableDepth != 3 {
		t.Fatalf("WithDefaults clobbered explicit fields: %+v", m)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
		want string
	}{
		{"platform", func(m *Machine) { m.Platform = "sifive" }, "platform"},
		{"mode", func(m *Machine) { m.Mode = "sgx" }, "mode"},
		{"mem-zero", func(m *Machine) { m.MemSize = 0 }, "minimum"},
		{"mem-small", func(m *Machine) { m.MemSize = 16 * addr.MiB }, "minimum"},
		{"mem-unaligned", func(m *Machine) { m.MemSize = 96*addr.MiB + 4096 }, "multiple"},
		{"depth", func(m *Machine) { m.TableDepth = 5 }, "depth"},
		{"depth-mode", func(m *Machine) { m.Mode = ModePMP; m.TableDepth = 3 }, "permission-table mode"},
		{"mem-huge", func(m *Machine) { m.MemSize = MaxMemSize + PoolAlign }, "maximum"},
		{"l2tlb-huge", func(m *Machine) { m.L2TLBEntries = MaxL2TLBEntries + 1 }, "l2tlb"},
		{"pwc-huge", func(m *Machine) { m.PWCEntries = MaxPWCEntries + 1 }, "pwc"},
		{"pwc-2^40", func(m *Machine) { m.PWCEntries = 1 << 40 }, "pwc"},
		{"pmptw-cache-huge", func(m *Machine) { m.PMPTWCache = MaxPMPTWCache + 1 }, "pmptw_cache"},
		{"l2tlb-not-pow2", func(m *Machine) { m.L2TLBEntries = 3 }, "power of two"},
	}
	for _, tc := range cases {
		m := Default()
		tc.mut(&m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, m)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAcceptsMaxima pins the upper bounds as inclusive, with the
// paper's largest configurations (1024-entry L2 TLB, 32-entry PWC, 16 GiB
// DRAM) and absent structures well inside them.
func TestValidateAcceptsMaxima(t *testing.T) {
	for _, m := range []Machine{
		{MemSize: MaxMemSize, L2TLBEntries: MaxL2TLBEntries, PWCEntries: MaxPWCEntries, PMPTWCache: MaxPMPTWCache},
		{MemSize: 16 * addr.GiB, L2TLBEntries: 1024, PWCEntries: 32, PMPTWCache: 8},
		{L2TLBEntries: -1, PWCEntries: -1, PMPTWCache: -1},
	} {
		m = m.WithDefaults()
		if err := m.Validate(); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestFlagRemapKeepsPR8Semantics(t *testing.T) {
	parse := func(args ...string) Machine {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := AddFlags(fs, "")
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		return f.Machine()
	}

	// Defaults: everything platform-default, canonical machine.
	m := parse()
	if m != Default() {
		t.Fatalf("default flags = %+v, want %+v", m, Default())
	}
	// Flag 0 = structure absent -> internal -1; flag <0 = default -> 0.
	m = parse("-l2tlb", "0", "-pwc", "0", "-pmptw-cache", "0")
	if m.L2TLBEntries != -1 || m.PWCEntries != -1 || m.PMPTWCache != 0 {
		t.Fatalf("flag-zero remap wrong: %+v", m)
	}
	m = parse("-l2tlb", "-1", "-pwc", "-7")
	if m.L2TLBEntries != 0 || m.PWCEntries != 0 {
		t.Fatalf("flag-negative remap wrong: %+v", m)
	}
	// Positive overrides pass through; the rest of the surface too.
	m = parse("-platform", "boom", "-mode", "pmpt", "-mem", "64",
		"-l2tlb", "128", "-pwc", "16", "-pmptw-cache", "32", "-depth", "3", "-scalar")
	want := Machine{Platform: "boom", Mode: ModePMPT, MemSize: 64 * addr.MiB,
		L2TLBEntries: 128, PWCEntries: 16, PMPTWCache: 32, TableDepth: 3, Scalar: true}
	if m != want {
		t.Fatalf("full flag surface = %+v, want %+v", m, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := Machine{Platform: "boom", Mode: ModePMPT, MemSize: 96 * addr.MiB,
		L2TLBEntries: -1, PWCEntries: 8, PMPTWCache: 16, TableDepth: 4, Scalar: true}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"mem_mib":96`) {
		t.Fatalf("memory must travel in MiB: %s", data)
	}
	var out Machine
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %s -> %+v", in, data, out)
	}
}

// TestJSONRejectsWrappingMemSize: a mem_mib whose byte size overflows
// uint64 must fail to decode rather than wrap into a small valid size
// (2^44 + 512 MiB would otherwise read as 512 MiB).
func TestJSONRejectsWrappingMemSize(t *testing.T) {
	var m Machine
	if err := json.Unmarshal([]byte(`{"mem_mib":17592186044928}`), &m); err == nil {
		t.Fatalf("decoded to %v, want an error", m)
	}
	if err := json.Unmarshal([]byte(`{"mem_mib":65536}`), &m); err != nil || m.MemSize != MaxMemSize {
		t.Fatalf("mem_mib at the maximum: %v, %v", m, err)
	}
}

func TestJSONRejectsUnknownFields(t *testing.T) {
	var m Machine
	err := json.Unmarshal([]byte(`{"pwc_entries": 8}`), &m)
	if err == nil {
		t.Fatal("typo'd field must be rejected")
	}
}

func TestMonitorMode(t *testing.T) {
	for _, mode := range []Mode{ModePMP, ModePMPT, ModeHPMP} {
		if _, ok := mode.MonitorMode(); !ok {
			t.Errorf("%s must map to a monitor mode", mode)
		}
	}
	if _, ok := ModeNone.MonitorMode(); ok {
		t.Error("none has no monitor mode")
	}
	if _, ok := Mode("sgx").MonitorMode(); ok {
		t.Error("unknown mode must not map")
	}
}

func TestWorkloadScaleValidate(t *testing.T) {
	if err := (WorkloadScale{}).Validate(); err != nil {
		t.Fatalf("zero scale must validate: %v", err)
	}
	if err := (WorkloadScale{RedisKeyspace: -1}).Validate(); err == nil {
		t.Fatal("negative scale must be rejected")
	}
	if Or(0, 7) != 7 || Or(3, 7) != 3 {
		t.Fatal("Or override semantics wrong")
	}
}

func TestAssembleGeometry(t *testing.T) {
	// Absent structures really come out zero-capacity; overrides stick;
	// PMPTW cache enablement follows the tri-state.
	m := Machine{Platform: "rocket", Mode: ModeHPMP, MemSize: 64 * addr.MiB,
		L2TLBEntries: -1, PWCEntries: 3, PMPTWCache: 16}
	plat := m.BasePlatform()
	m.ApplyGeometry(&plat)
	if plat.MMU.L2TLBEntries != 0 || plat.MMU.PWCEntries != 3 || plat.PMPTWCacheEntries != 16 {
		t.Fatalf("geometry overrides not applied: %+v", plat)
	}
	mach := m.Assemble()
	if mach.PMPTWCache == nil || !mach.PMPTWCache.Enabled {
		t.Fatal("PMPTWCache > 0 must enable the walker cache")
	}
	mach = Machine{Platform: "rocket", Mode: ModeHPMP, MemSize: 64 * addr.MiB}.Assemble()
	if mach.PMPTWCache != nil && mach.PMPTWCache.Enabled {
		t.Fatal("default PMPTW cache must stay disabled (paper methodology)")
	}
	none := Machine{Platform: "rocket", Mode: ModeNone, MemSize: 64 * addr.MiB}.Assemble()
	if none.Checker != nil {
		t.Fatal("ModeNone machine must carry no checker")
	}
}

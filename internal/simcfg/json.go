package simcfg

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hpmp/internal/addr"
)

// machineJSON is the wire shape of a Machine. Memory travels in MiB
// (humans write job bodies; nobody wants to count bytes), the tri-state
// geometry fields travel raw: 0 and absent both mean "platform default",
// matching the in-memory encoding.
type machineJSON struct {
	Platform   string `json:"platform,omitempty"`
	Mode       Mode   `json:"mode,omitempty"`
	MemMiB     uint64 `json:"mem_mib,omitempty"`
	L2TLB      int    `json:"l2tlb,omitempty"`
	PWC        int    `json:"pwc,omitempty"`
	PMPTWCache int    `json:"pmptw_cache,omitempty"`
	TableDepth int    `json:"table_depth,omitempty"`
	Scalar     bool   `json:"scalar,omitempty"`
}

// MarshalJSON emits the wire form (mem in MiB). A MemSize that is not a
// whole number of MiB would lose precision silently, so it errors instead;
// Validate's PoolAlign check makes that unreachable for valid configs.
func (m Machine) MarshalJSON() ([]byte, error) {
	if m.MemSize%addr.MiB != 0 {
		return nil, fmt.Errorf("simcfg: mem size %d is not a whole number of MiB", m.MemSize)
	}
	return json.Marshal(machineJSON{
		Platform:   m.Platform,
		Mode:       m.Mode,
		MemMiB:     m.MemSize / addr.MiB,
		L2TLB:      m.L2TLBEntries,
		PWC:        m.PWCEntries,
		PMPTWCache: m.PMPTWCache,
		TableDepth: m.TableDepth,
		Scalar:     m.Scalar,
	})
}

// UnmarshalJSON parses the wire form. Unknown fields are rejected so a
// typo'd job body ("pwc_entries") fails loudly at submit time instead of
// silently running the platform default.
func (m *Machine) UnmarshalJSON(data []byte) error {
	var w machineJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("simcfg: parsing machine config: %w", err)
	}
	// Checked here, before the MiB → bytes multiply can wrap a huge value
	// into a small, valid-looking size.
	if w.MemMiB > MaxMemSize/addr.MiB {
		return fmt.Errorf("simcfg: mem_mib %d exceeds the %d MiB maximum", w.MemMiB, MaxMemSize/addr.MiB)
	}
	*m = Machine{
		Platform:     w.Platform,
		Mode:         w.Mode,
		MemSize:      w.MemMiB * addr.MiB,
		L2TLBEntries: w.L2TLB,
		PWCEntries:   w.PWC,
		PMPTWCache:   w.PMPTWCache,
		TableDepth:   w.TableDepth,
		Scalar:       w.Scalar,
	}
	return nil
}

// Package cache implements the set-associative cache hierarchy of the
// simulated SoCs (Table 1 of the paper): split L1 I/D caches, a unified L2,
// and a last-level cache in front of DRAM. Caches are write-back,
// write-allocate, with true-LRU replacement. Timing is additive: a request
// pays each level's access latency until it hits, and a miss at the LLC pays
// the DRAM model's latency.
package cache

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/dram"
	"hpmp/internal/stats"
)

// Config describes one cache level.
type Config struct {
	Name     string
	Size     uint64 // total bytes
	Ways     int    // associativity (1 = direct mapped)
	LineSize uint64 // bytes per line
	Latency  uint64 // access latency in cycles (hit or lookup-on-miss)
}

// Validate checks the geometry is realizable.
func (c Config) Validate() error {
	if c.LineSize == 0 || !addr.IsPow2(c.LineSize) {
		return fmt.Errorf("cache %s: line size %d must be a power of two", c.Name, c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways must be positive", c.Name)
	}
	lines := c.Size / c.LineSize
	if lines == 0 || lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible into %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if !addr.IsPow2(sets) {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

type line struct {
	valid bool
	dirty bool
	// locked lines are pinned: eviction skips them (Penglai's cache-line
	// locking, used to keep monitor-critical state resident and immune to
	// cache-occupancy side channels).
	locked bool
	tag    uint64
	// lru: larger = more recently used.
	lru uint64
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg      Config
	sets     uint64
	lineBits uint
	// setBits is log2(sets): Validate guarantees a power-of-two set count,
	// so index splits a line address with a mask and a shift instead of
	// two 64-bit divisions on every probe.
	setBits uint
	ways    int
	// lines holds every way of every set, set-major: set s occupies
	// lines[s*ways : (s+1)*ways]. One flat array keeps a probe to a single
	// bounds-checked slice instead of a slice-of-slices double load.
	lines []line
	tick  uint64 // LRU clock

	// Hot-path counter handles, resolved once in New so per-access bumps
	// pay neither a map lookup nor the cfg.Name+suffix concatenation.
	hHit, hMiss, hFill, hEvict, hWriteback, hFillBypass, hLockReject *uint64

	Counters stats.Counters
}

// New builds a cache level from cfg; invalid geometry panics (it is a
// programming error in a fixed experiment configuration).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Size / cfg.LineSize / uint64(cfg.Ways)
	c := &Cache{cfg: cfg, sets: sets, ways: cfg.Ways}
	for c.cfg.LineSize>>(c.lineBits+1) > 0 {
		c.lineBits++
	}
	for sets>>(c.setBits+1) > 0 {
		c.setBits++
	}
	c.lines = make([]line, sets*uint64(cfg.Ways))
	c.hHit = c.Counters.Handle(cfg.Name + ".hit")
	c.hMiss = c.Counters.Handle(cfg.Name + ".miss")
	c.hFill = c.Counters.Handle(cfg.Name + ".fill")
	c.hEvict = c.Counters.Handle(cfg.Name + ".evict")
	c.hWriteback = c.Counters.Handle(cfg.Name + ".writeback")
	c.hFillBypass = c.Counters.Handle(cfg.Name + ".fill_bypass")
	c.hLockReject = c.Counters.Handle(cfg.Name + ".lock_reject")
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(pa addr.PA) (set, tag uint64) {
	lineAddr := uint64(pa) >> c.lineBits
	return lineAddr & (c.sets - 1), lineAddr >> c.setBits
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	base := int(s) * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// Lookup probes the cache without filling. It returns whether the line is
// present and updates LRU on hit.
func (c *Cache) Lookup(pa addr.PA, write bool) bool {
	set, tag := c.index(pa)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			c.tick++
			l.lru = c.tick
			if write {
				l.dirty = true
			}
			*c.hHit++
			return true
		}
	}
	*c.hMiss++
	return false
}

// Fill inserts the line containing pa, evicting the LRU unlocked way. It
// returns the evicted line's address and whether it was dirty (so the
// caller can model a write-back), or ok=false when no valid line was
// evicted. When every way of the set is locked, the fill is dropped (the
// access behaves uncached), matching lock-by-way hardware.
func (c *Cache) Fill(pa addr.PA, write bool) (victim addr.PA, dirty, ok bool) {
	set, tag := c.index(pa)
	ways := c.set(set)
	// Refresh in place if present (keeps lock state).
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.tick++
			ways[i].lru = c.tick
			ways[i].dirty = ways[i].dirty || write
			return 0, false, false
		}
	}
	// Prefer an invalid way.
	vi := -1
	for i := range ways {
		if !ways[i].valid {
			vi = i
			goto place
		}
	}
	// Evict true-LRU among unlocked ways.
	for i := range ways {
		if ways[i].locked {
			continue
		}
		if vi < 0 || ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	if vi < 0 {
		// Fully locked set: bypass.
		*c.hFillBypass++
		return 0, false, false
	}
	{
		v := &ways[vi]
		victimLineAddr := (v.tag<<c.setBits | set) << c.lineBits
		victim, dirty, ok = addr.PA(victimLineAddr), v.dirty, true
		if dirty {
			*c.hWriteback++
		}
		*c.hEvict++
	}
place:
	c.tick++
	ways[vi] = line{valid: true, dirty: write, tag: tag, lru: c.tick}
	*c.hFill++
	return victim, dirty, ok
}

// Lock pins the line containing pa, filling it first if absent. It reports
// whether the pin took hold (false when the set is already fully locked).
func (c *Cache) Lock(pa addr.PA) bool {
	set, tag := c.index(pa)
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].locked = true
			return true
		}
	}
	// Keep at least one unlocked way per set so the cache stays usable.
	lockedWays := 0
	for i := range ways {
		if ways[i].valid && ways[i].locked {
			lockedWays++
		}
	}
	if lockedWays >= len(ways)-1 {
		*c.hLockReject++
		return false
	}
	c.Fill(pa, false)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].locked = true
			return true
		}
	}
	return false
}

// Unlock releases a pinned line (no-op when absent).
func (c *Cache) Unlock(pa addr.PA) {
	set, tag := c.index(pa)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.locked = false
		}
	}
}

// LockedLines counts pinned lines (for accounting).
func (c *Cache) LockedLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].locked {
			n++
		}
	}
	return n
}

// InvalidateAll flushes the cache (used to build cold-state test cases;
// dirty data is discarded because experiment state is rebuilt afterwards).
func (c *Cache) InvalidateAll() {
	clear(c.lines)
}

// Contains reports presence without touching LRU or counters (for tests and
// state priming checks).
func (c *Cache) Contains(pa addr.PA) bool {
	set, tag := c.index(pa)
	ways := c.set(set)
	for i := range ways {
		l := ways[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Touch inserts a line without counting statistics — used by experiment
// setup code to pre-warm caches into a Table 2 state.
func (c *Cache) Touch(pa addr.PA) {
	set, tag := c.index(pa)
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.tick++
			ways[i].lru = c.tick
			return
		}
	}
	vi := 0
	for i := range ways {
		if !ways[i].valid {
			vi = i
			break
		}
		if ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	c.tick++
	ways[vi] = line{valid: true, tag: tag, lru: c.tick}
}

// Hierarchy composes L1 (one of the split caches), L2, LLC and DRAM into a
// single access path. The same L2/LLC/DRAM are shared by instruction and
// data sides; each side owns its L1.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache
	Mem *dram.DRAM
	// ClockRatio converts memory-controller cycles to core cycles (3.2 for
	// BOOM at 3.2 GHz with a 1 GHz controller; 1.0 for Rocket).
	ClockRatio float64

	// hh holds the hierarchy's pre-resolved counter handles. Hierarchies
	// are built with struct literals all over the tree, so the handles are
	// resolved lazily on the first access instead of in a constructor.
	hh hierHandles

	Counters stats.Counters
}

type hierHandles struct {
	l1Hit, l2Hit, llcHit, dram *uint64
}

// handles returns the hierarchy's counter handles, resolving them on first
// use. The check is kept small enough to inline into access; resolution
// itself happens once, out of line.
func (h *Hierarchy) handles() *hierHandles {
	if h.hh.l1Hit == nil {
		h.resolveHandles()
	}
	return &h.hh
}

func (h *Hierarchy) resolveHandles() {
	h.hh = hierHandles{
		l1Hit:  h.Counters.Handle("mem.l1_hit"),
		l2Hit:  h.Counters.Handle("mem.l2_hit"),
		llcHit: h.Counters.Handle("mem.llc_hit"),
		dram:   h.Counters.Handle("mem.dram_access"),
	}
}

// Level identifies the hierarchy level that satisfied a request. The values
// index the MMU's per-level counter handles.
type Level uint8

const (
	LvlL1 Level = iota
	LvlL2
	LvlLLC
	LvlDRAM
	// NumLevels sizes per-level lookup arrays.
	NumLevels
)

// String returns the paper's label for the level ("L1", "L2", "LLC",
// "DRAM").
func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlLLC:
		return "LLC"
	case LvlDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// AccessResult describes where a request was satisfied. Level carries the
// hit level as an index (render with Level.String when a name is needed) so
// the struct stays two words — it rides the MMU's per-access hot path and
// must not drag a string header through every return.
type AccessResult struct {
	Latency uint64 // total core cycles
	Level   Level  // where the request hit
}

// Access runs one line-sized memory reference at core-cycle `now` through
// the hierarchy and returns its latency in core cycles. Misses fill all
// levels on the way back (inclusive fill).
func (h *Hierarchy) Access(pa addr.PA, now uint64, write bool) AccessResult {
	return h.access(pa, now, write, false)
}

// AccessNoL1 is the walker-side port: page-table and permission-table
// walkers fetch from the L2 downward (Rocket's and BOOM's PTWs do not
// allocate into the L1 D-cache), so PTE/pmpte reuse is captured by L2/LLC
// only.
func (h *Hierarchy) AccessNoL1(pa addr.PA, now uint64, write bool) AccessResult {
	return h.access(pa, now, write, true)
}

func (h *Hierarchy) access(pa addr.PA, now uint64, write bool, skipL1 bool) AccessResult {
	hh := h.handles()
	var lat uint64
	if !skipL1 {
		lat = h.L1.cfg.Latency
		if h.L1.Lookup(pa, write) {
			*hh.l1Hit++
			return AccessResult{Latency: lat, Level: LvlL1}
		}
	}
	lat += h.L2.cfg.Latency
	if h.L2.Lookup(pa, write) {
		if !skipL1 {
			h.L1.Fill(pa, write)
		}
		*hh.l2Hit++
		return AccessResult{Latency: lat, Level: LvlL2}
	}
	lat += h.LLC.cfg.Latency
	if h.LLC.Lookup(pa, write) {
		h.L2.Fill(pa, false)
		if !skipL1 {
			h.L1.Fill(pa, write)
		}
		*hh.llcHit++
		return AccessResult{Latency: lat, Level: LvlLLC}
	}
	// DRAM: convert the core-cycle issue time into controller cycles, run
	// the access, convert back. A write miss pays an extra
	// read-for-ownership burst before the line is writable.
	memNow := uint64(float64(now+lat) / h.ClockRatio)
	done := h.Mem.Access(pa, memNow, write)
	dramLat := uint64(float64(done-memNow) * h.ClockRatio)
	if write {
		dramLat += uint64(16 * h.ClockRatio)
	}
	lat += dramLat
	h.LLC.Fill(pa, false)
	h.L2.Fill(pa, false)
	if !skipL1 {
		h.L1.Fill(pa, write)
	}
	*hh.dram++
	return AccessResult{Latency: lat, Level: LvlDRAM}
}

// Warm inserts the line containing pa into every level without recording
// statistics, for experiment state priming.
func (h *Hierarchy) Warm(pa addr.PA) {
	h.L1.Touch(pa)
	h.L2.Touch(pa)
	h.LLC.Touch(pa)
}

// WarmShared inserts the line into the shared levels (L2, LLC) only, leaving
// the private L1 cold — the state after another core or the prefetcher
// brought data near.
func (h *Hierarchy) WarmShared(pa addr.PA) {
	h.L2.Touch(pa)
	h.LLC.Touch(pa)
}

// InvalidateAll flushes every level.
func (h *Hierarchy) InvalidateAll() {
	h.L1.InvalidateAll()
	h.L2.InvalidateAll()
	h.LLC.InvalidateAll()
}

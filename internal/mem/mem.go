// Package mem models the physical address space of the testbed: host
// DRAM, device BARs (HDC Engine BRAM and on-board DDR3, GPU VRAM), and
// the buffers that live in them. All regions carry real bytes, so the
// data plane is functionally testable end-to-end.
//
// Regions can refuse inbound peer-to-peer traffic. This is how the
// testbed encodes the paper's observation (§V-A) that an NVMe SSD and
// a NIC cannot talk directly: both are DMA masters whose internal
// memory is not exposed on the bus, so software-controlled P2P has no
// target to aim at. The HDC Engine's BRAM/DDR3 *are* exposed, which is
// exactly what makes the DCS-ctrl path possible.
package mem

import (
	"fmt"
	"slices"
	"sort"
	"syscall"
)

// Kind classifies a memory region.
type Kind int

// Region kinds.
const (
	HostDRAM       Kind = iota // host main memory
	DeviceBRAM                 // FPGA on-chip block RAM (fast, small)
	DeviceDRAM                 // FPGA on-board DDR3 (1 GB on the VC707)
	GPUVRAM                    // GPU device memory
	DeviceInternal             // device-private memory, not bus-addressable
	MMIO                       // register window (doorbells)
)

func (k Kind) String() string {
	switch k {
	case HostDRAM:
		return "host-dram"
	case DeviceBRAM:
		return "device-bram"
	case DeviceDRAM:
		return "device-dram"
	case GPUVRAM:
		return "gpu-vram"
	case DeviceInternal:
		return "device-internal"
	case MMIO:
		return "mmio"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Addr is a 64-bit physical bus address.
type Addr uint64

// Region is a contiguous span of the physical address space.
type Region struct {
	Name string
	Kind Kind
	Base Addr
	Size uint64

	// P2PTarget reports whether peer devices may DMA into/out of this
	// region. Host DRAM and exposed BARs are targets; device-internal
	// memory (SSD data buffers, NIC FIFOs) is not.
	P2PTarget bool

	data      []byte
	writeHook func(off uint64, n int)
	allocOff  uint64 // bump allocator cursor

	// user marks a user mapping (Map.MapUser): data is a caller's
	// slice, mapped by reference and read-only.
	user bool

	// hiWater bounds the bytes that may be non-zero: every write path
	// (WriteAt, Copy) raises it past the written span, and the region
	// starts zeroed, so [hiWater, Size) is guaranteed zero. Checkpoint
	// save scans only the live prefix and restore only scrubs it —
	// regions are sized like hardware (hundreds of megabytes across a
	// cluster) while live content is typically a few percent. Writes
	// through View bypass the watermark exactly as they bypass the
	// write hook; both are why View is documented read-only.
	hiWater uint64
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr Addr) bool {
	return addr >= r.Base && uint64(addr-r.Base) < r.Size
}

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.Size) }

// SetWriteHook installs fn to be called after every write into the
// region with the written offset and length. This is the discrete-
// event analogue of hardware continuously snooping a completion-queue
// phase bit: in RTL the poll is free, here it is an event.
func (r *Region) SetWriteHook(fn func(off uint64, n int)) { r.writeHook = fn }

func (r *Region) check(off uint64, n int) {
	if n < 0 || off+uint64(n) > r.Size {
		panic(fmt.Sprintf("mem: access [%d,%d) outside region %s size %d",
			off, off+uint64(n), r.Name, r.Size))
	}
}

// checkWrite is check for a store: a user mapping holds its caller's
// bytes, which the model never writes.
func (r *Region) checkWrite(off uint64, n int) {
	if r.user {
		panic(fmt.Sprintf("mem: write of %d bytes into read-only user mapping %s", n, r.Name))
	}
	r.check(off, n)
}

// WriteAt copies p into the region at off and fires the write hook.
func (r *Region) WriteAt(off uint64, p []byte) {
	r.checkWrite(off, len(p))
	if end := off + uint64(len(p)); end > r.hiWater {
		r.hiWater = end
	}
	copy(r.data[off:], p)
	if r.writeHook != nil {
		//dcslint:allow noalloc hook bodies are model code vetted by shardsafe; benched paths run hook-free
		//dcslint:allow noblockhandler hooks take no Proc and cannot park; they fire signals and schedule events only
		r.writeHook(off, len(p))
	}
}

// ReadAt copies from the region at off into p.
func (r *Region) ReadAt(off uint64, p []byte) {
	r.check(off, len(p))
	copy(p, r.data[off:])
}

// Bytes returns a read-only view of [off, off+n). The caller must not
// retain it across simulated time.
func (r *Region) Bytes(off uint64, n int) []byte {
	r.check(off, n)
	return r.data[off : off+uint64(n)]
}

// Zero clears [off, off+n) in place without allocating and fires the
// write hook, exactly as writing n zero bytes would.
func (r *Region) Zero(off uint64, n int) {
	r.checkWrite(off, n)
	b := r.data[off : off+uint64(n)]
	for i := range b {
		b[i] = 0
	}
	if r.writeHook != nil {
		//dcslint:allow noalloc hook bodies are model code vetted by shardsafe; benched paths run hook-free
		//dcslint:allow noblockhandler hooks take no Proc and cannot park; they fire signals and schedule events only
		r.writeHook(off, n)
	}
}

// Alloc carves n bytes (aligned) out of the region with a bump
// allocator and returns the bus address. It panics when the region is
// exhausted: the testbed sizes regions up front, as hardware does.
func (r *Region) Alloc(n uint64, align uint64) Addr {
	if align == 0 {
		align = 1
	}
	off := (r.allocOff + align - 1) &^ (align - 1)
	if off+n > r.Size {
		panic(fmt.Sprintf("mem: region %s exhausted (%d + %d > %d)", r.Name, off, n, r.Size))
	}
	r.allocOff = off + n
	return r.Base + Addr(off)
}

// Map is the global bus address map: it assigns bases to regions and
// resolves addresses back to (region, offset).
type Map struct {
	regions []*Region // in address order: every new region lands past the last
	users   int       // live user mappings

	// last is a one-entry resolution cache in front of the binary
	// search: device models hammer the same region (their own BAR or
	// the host buffer they are streaming through) for long runs, so
	// most Resolve calls hit here. Purely a lookup memo — it never
	// affects results, only the cost of finding them.
	last *Region
}

// NewMap returns an empty address map starting at 4 GiB (leaving the
// low range free, as a real platform does).
func NewMap() *Map { return &Map{} }

// guardGap separates regions so off-by-one addressing faults are
// caught instead of silently landing in a neighbour.
const guardGap = 1 << 20

// top returns the first address past every region and its guard gap,
// where the next region goes.
func (m *Map) top() Addr {
	if k := len(m.regions); k > 0 {
		return m.regions[k-1].End() + guardGap
	}
	return 4 << 30
}

// AddRegion creates and maps a region of the given size.
func (m *Map) AddRegion(name string, kind Kind, size uint64, p2pTarget bool) *Region {
	r := &Region{
		Name:      name,
		Kind:      kind,
		Base:      m.top(),
		Size:      size,
		P2PTarget: p2pTarget,
		data:      mapBacking(name, size),
	}
	m.regions = append(m.regions, r)
	return r
}

// MapUser maps a caller's bytes, by reference, as a read-only host
// DRAM region at a page-aligned base past every other region
// (DESIGN.md §11). Devices read them in place through Resolve, View
// and Copy; a store into the mapping (WriteAt, Zero, a Copy into it)
// panics. A user mapping lives for one blocking call: its owner unmaps
// it with Unmap before returning, and the caller must not change the
// bytes until then. Map.Snap refuses a map that holds one.
func (m *Map) MapUser(name string, data []byte) *Region {
	r := &Region{
		Name: name,
		Kind: HostDRAM,
		Base: (m.top() + PageSize - 1) &^ (PageSize - 1),
		Size: uint64(len(data)),
		// Every host DRAM region is a P2P target; pcie's reach check
		// admits host DRAM before it reads the flag.
		P2PTarget: true,
		data:      data,
		user:      true,
	}
	m.regions = append(m.regions, r)
	m.users++
	return r
}

// Unmap removes a user mapping and drops its reference to the
// caller's bytes, so a DMA record still pointing at r does not keep
// them alive. It panics on any other region, and on a second Unmap:
// unmapping device regions belongs to an explicit close (ROADMAP
// item 1).
func (m *Map) Unmap(r *Region) {
	i := m.index(r)
	if i < 0 || !r.user {
		panic(fmt.Sprintf("mem: unmapping %s, which is not a live user mapping", r.Name))
	}
	m.regions = slices.Delete(m.regions, i, i+1)
	m.users--
	if m.last == r {
		m.last = nil
	}
	r.data = nil
}

// Holds reports whether r is mapped here.
func (m *Map) Holds(r *Region) bool { return m.index(r) >= 0 }

// index returns r's position in the address-ordered region list, or
// -1 when the map does not hold it.
func (m *Map) index(r *Region) int {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].Base >= r.Base })
	if i < len(m.regions) && m.regions[i] == r {
		return i
	}
	return -1
}

// UserMappings returns how many user mappings are live. A quiescent
// map holds none: every blocking send has returned.
func (m *Map) UserMappings() int { return m.users }

// mapBacking returns a region's backing store: a private anonymous
// mapping, outside the Go heap, whose pages the kernel zero-fills on
// first touch (DESIGN.md §11). A region sized like hardware costs only
// the pages the run writes, and the allocator never re-zeroes a
// finished cluster's spans for the next one. Nothing unmaps a backing:
// a view (View, Region.Bytes) does not keep its region reachable, so
// unmapping an unreachable region could free pages under a live view.
// (A user mapping has no backing of its own; its bytes are the
// caller's heap slice, which a view keeps alive.)
func mapBacking(name string, size uint64) []byte {
	if size == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping %d bytes for region %s: %v", size, name, err))
	}
	return b
}

// Resolve returns the region containing addr and the offset within it.
func (m *Map) Resolve(addr Addr) (*Region, uint64, error) {
	if r := m.last; r != nil && r.Contains(addr) {
		return r, uint64(addr - r.Base), nil
	}
	//dcslint:allow noalloc non-escaping search closure, stack-allocated (TestMemAllocFree proves 0 allocs/op)
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].End() > addr
	})
	if i < len(m.regions) && m.regions[i].Contains(addr) {
		m.last = m.regions[i]
		return m.regions[i], uint64(addr - m.regions[i].Base), nil
	}
	return nil, 0, fmt.Errorf("mem: unmapped address %#x", uint64(addr))
}

// MustResolve is Resolve that panics on unmapped addresses (device
// models treat a bad address as a modelling bug, not a runtime error).
//
//dcslint:hotpath
func (m *Map) MustResolve(addr Addr) (*Region, uint64) {
	r, off, err := m.Resolve(addr)
	if err != nil {
		panic(err)
	}
	return r, off
}

// Regions returns all mapped regions in address order. The returned
// slice is the map's own backing store, not a copy: callers must only
// iterate it (audited — internal/report and the tests do exactly
// that) and must not append to, reorder, or mutate it. Returning the
// live slice keeps per-call cost at zero for hot diagnostics.
func (m *Map) Regions() []*Region { return m.regions }

// Write copies p to the absolute address addr.
func (m *Map) Write(addr Addr, p []byte) {
	r, off := m.MustResolve(addr)
	r.WriteAt(off, p)
}

// Read copies n bytes from the absolute address addr into a freshly
// allocated slice. Hot paths should prefer ReadInto (caller-owned
// buffer) or View (no copy at all).
func (m *Map) Read(addr Addr, n int) []byte {
	p := make([]byte, n)
	m.ReadInto(addr, p)
	return p
}

// ReadInto copies len(p) bytes from the absolute address addr into p
// without allocating.
//
//dcslint:hotpath mem_read_into_4k
func (m *Map) ReadInto(addr Addr, p []byte) {
	r, off := m.MustResolve(addr)
	r.ReadAt(off, p)
}

// View returns a slice aliasing the backing store of [addr, addr+n).
// The span must be contiguous, i.e. lie inside one region — region
// spans always are, since regions are separated by guard gaps.
//
// Aliasing rules (see DESIGN.md §11): the view is only valid until
// the underlying buffer is rewritten or simulated time advances —
// callers must either consume it immediately (decode, hash, copy out)
// or take an explicit copy before parking. Writing through a View
// bypasses the region write hook; use Write/WriteAt for stores that
// must be observable.
//
//dcslint:hotpath
func (m *Map) View(addr Addr, n int) []byte {
	r, off := m.MustResolve(addr)
	return r.Bytes(off, n)
}

// Zero clears n bytes at addr in place, firing the write hook as a
// write of n zero bytes would, without allocating a zero buffer.
//
//dcslint:hotpath
func (m *Map) Zero(addr Addr, n int) {
	if n == 0 {
		return
	}
	r, off := m.MustResolve(addr)
	r.Zero(off, n)
}

// Copy moves n bytes from src to dst, preserving write-hook semantics
// at the destination. Both spans live in this map, so the copy runs
// region-to-region with no bounce buffer; Go's copy has memmove
// semantics, so overlapping same-region spans behave exactly as the
// old read-snapshot-then-write implementation did.
//
//dcslint:hotpath mem_copy_same_map_4k
func (m *Map) Copy(dst, src Addr, n int) {
	if n == 0 {
		return
	}
	sr, soff := m.MustResolve(src)
	sr.check(soff, n)
	dr, doff := m.MustResolve(dst)
	dr.checkWrite(doff, n)
	if end := doff + uint64(n); end > dr.hiWater {
		dr.hiWater = end
	}
	copy(dr.data[doff:doff+uint64(n)], sr.data[soff:soff+uint64(n)])
	if dr.writeHook != nil {
		//dcslint:allow noalloc hook bodies are model code vetted by shardsafe; benched paths run hook-free
		//dcslint:allow noblockhandler hooks take no Proc and cannot park; they fire signals and schedule events only
		dr.writeHook(doff, n)
	}
}

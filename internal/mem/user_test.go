package mem

import (
	"bytes"
	"strings"
	"testing"

	"dcsctrl/internal/sim/snap"
)

// mustPanic runs fn and returns its panic message, failing the test
// when fn returns normally or the message lacks want.
func mustPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	msg := func() (msg any) {
		defer func() { msg = recover() }()
		fn()
		return nil
	}()
	if s, _ := msg.(string); !strings.Contains(s, want) {
		t.Errorf("%s: panic %v, want one containing %q", what, msg, want)
	}
}

// TestMapUserReads: a user mapping aliases the caller's slice, and
// Resolve, View, ReadInto and Copy out of it see the caller's bytes.
func TestMapUserReads(t *testing.T) {
	m := NewMap()
	dram := m.AddRegion("dram", HostDRAM, 1<<16, true)
	data := []byte("bytes the caller already holds")
	u := m.MapUser("payload", data)
	if u.Size != uint64(len(data)) || u.Kind != HostDRAM || !u.P2PTarget {
		t.Fatalf("mapping %+v", u)
	}
	r, off, err := m.Resolve(u.Base + 6)
	if err != nil || r != u || off != 6 {
		t.Fatalf("resolve: %v %d %v", r, off, err)
	}
	if v := m.View(u.Base, len(data)); &v[0] != &data[0] {
		t.Fatal("view copies instead of aliasing the caller's slice")
	}
	got := make([]byte, 5)
	m.ReadInto(u.Base+6, got)
	if string(got) != "the c" {
		t.Fatalf("read %q", got)
	}
	m.Copy(dram.Base+100, u.Base, len(data))
	if !bytes.Equal(m.Read(dram.Base+100, len(data)), data) {
		t.Fatal("copy out of the mapping differs from the caller's bytes")
	}
	if m.UserMappings() != 1 {
		t.Fatalf("%d user mappings live, want 1", m.UserMappings())
	}
	m.Unmap(u)
	if m.UserMappings() != 0 || m.Holds(u) {
		t.Fatal("Unmap left the mapping in the map")
	}
	if !bytes.Equal(data, []byte("bytes the caller already holds")) {
		t.Fatal("mapping changed the caller's bytes")
	}
}

// TestMapUserReadOnly: every store into a user mapping panics and
// leaves the caller's bytes as they were.
func TestMapUserReadOnly(t *testing.T) {
	m := NewMap()
	dram := m.AddRegion("dram", HostDRAM, 4096, true)
	data := bytes.Repeat([]byte{7}, 64)
	u := m.MapUser("payload", data)
	const want = "read-only user mapping payload"
	mustPanic(t, "WriteAt", want, func() { u.WriteAt(0, []byte{1}) })
	mustPanic(t, "Map.Write", want, func() { m.Write(u.Base+8, []byte{1}) })
	mustPanic(t, "Map.Copy into it", want, func() { m.Copy(u.Base, dram.Base, 8) })
	mustPanic(t, "Region.Zero", want, func() { u.Zero(0, 8) })
	mustPanic(t, "Map.Zero", want, func() { m.Zero(u.Base, 8) })
	if !bytes.Equal(data, bytes.Repeat([]byte{7}, 64)) {
		t.Fatal("a refused store changed the caller's bytes")
	}
	mustPanic(t, "Unmap of a device region", "not a live user mapping", func() { m.Unmap(dram) })
	m.Unmap(u)
	// The next mapping lands at u's base; a stale second Unmap of u
	// must still panic rather than take it down.
	next := m.MapUser("next", data)
	if next.Base != u.Base {
		t.Fatalf("next mapping at %#x, want u's base %#x", next.Base, u.Base)
	}
	mustPanic(t, "second Unmap", "not a live user mapping", func() { m.Unmap(u) })
	if !m.Holds(next) || m.UserMappings() != 1 {
		t.Fatal("a stale Unmap took down the mapping that replaced it")
	}
}

// TestMapUserBases: across interleaved maps, unmaps and region adds,
// the region list stays in address order, each mapping starts on a
// page past every region before it plus the guard gap, and regions
// never overlap.
func TestMapUserBases(t *testing.T) {
	m := NewMap()
	m.AddRegion("a", HostDRAM, 5000, true) // leaves the top off a page
	var live []*Region
	for i := 0; i < 40; i++ {
		switch {
		case i%7 == 3:
			m.AddRegion("dev", DeviceDRAM, uint64(100+i), true)
		case i%3 == 2 && len(live) > 0:
			j := (i * 5) % len(live)
			m.Unmap(live[j])
			live = append(live[:j], live[j+1:]...)
		default:
			prev := m.regions[len(m.regions)-1]
			u := m.MapUser("u", make([]byte, 1+i*97))
			if u.Base%PageSize != 0 {
				t.Fatalf("step %d: mapping at %#x is off a page", i, u.Base)
			}
			if u.Base < prev.End()+guardGap || u.Base >= prev.End()+guardGap+PageSize {
				t.Fatalf("step %d: mapping at %#x, want the first page past %#x", i, u.Base, prev.End()+guardGap)
			}
			live = append(live, u)
		}
		for k := 1; k < len(m.regions); k++ {
			if m.regions[k].Base < m.regions[k-1].End()+guardGap {
				t.Fatalf("step %d: region %d at %#x overlaps the gap after %#x", i, k, m.regions[k].Base, m.regions[k-1].End())
			}
		}
		if m.UserMappings() != len(live) {
			t.Fatalf("step %d: %d user mappings, want %d", i, m.UserMappings(), len(live))
		}
	}
}

// TestUnmapDropsResolveCache: after Unmap, an address the resolve
// cache last served from the mapping no longer resolves.
func TestUnmapDropsResolveCache(t *testing.T) {
	m := NewMap()
	m.AddRegion("dram", HostDRAM, 4096, true)
	u := m.MapUser("payload", make([]byte, 4096))
	addr := u.Base + 100
	if r, _ := m.MustResolve(addr); r != u || m.last != u {
		t.Fatal("resolve did not cache the mapping")
	}
	m.Unmap(u)
	if m.last != nil {
		t.Fatal("Unmap kept the mapping in the resolve cache")
	}
	if r, _, err := m.Resolve(addr); err == nil {
		t.Fatalf("unmapped address resolved to %q", r.Name)
	}
}

// TestSnapRefusesUserMapping: a map holding a user mapping is mid-send
// and cannot be saved; once it is unmapped the save succeeds.
func TestSnapRefusesUserMapping(t *testing.T) {
	m := NewMap()
	m.AddRegion("dram", HostDRAM, 4096, true)
	u := m.MapUser("payload", make([]byte, 64))
	c := snap.NewSaver(snap.Header{Version: snap.Version})
	m.Snap(c)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "user mapping") {
		t.Fatalf("save with a live user mapping: %v", err)
	}
	m.Unmap(u)
	c = snap.NewSaver(snap.Header{Version: snap.Version})
	m.Snap(c)
	if err := c.Err(); err != nil {
		t.Fatalf("save after Unmap: %v", err)
	}
}

// FuzzMapRegions drives random sequences of AddRegion, MapUser, Unmap
// and Resolve against a reference list of live regions. Every probed
// address must resolve to exactly the live region that holds it, at
// the right offset, and never to an unmapped one; an address no live
// region holds must not resolve. A run takes at most 64 operations
// and 4 device regions: each device region is an anonymous mapping
// that nothing unmaps.
func FuzzMapRegions(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxOps, maxDevices = 64, 4
		if len(ops) > 2*maxOps {
			ops = ops[:2*maxOps]
		}
		m := NewMap()
		devices := 0
		type ref struct {
			r          *Region
			base, size Addr
		}
		var live []ref    // in address order
		var probes []Addr // addresses of every region ever mapped
		holder := func(a Addr) *Region {
			for _, x := range live {
				if a >= x.base && a < x.base+x.size {
					return x.r
				}
			}
			return nil
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%4, int(ops[i+1])
			switch op {
			case 0: // a device region, possibly off a page in size
				if devices == maxDevices {
					continue
				}
				devices++
				r := m.AddRegion("dev", DeviceDRAM, uint64(arg)*61, true)
				live = append(live, ref{r, r.Base, Addr(r.Size)})
				probes = append(probes, r.Base, r.Base+Addr(r.Size)/2, r.End())
			case 1: // a user mapping, possibly empty
				r := m.MapUser("user", make([]byte, arg*37))
				live = append(live, ref{r, r.Base, Addr(r.Size)})
				probes = append(probes, r.Base, r.Base+Addr(r.Size)-1, r.End())
			case 2: // unmap one live user mapping
				var users []int
				for k, x := range live {
					if x.r.user {
						users = append(users, k)
					}
				}
				if len(users) == 0 {
					continue
				}
				k := users[arg%len(users)]
				m.Unmap(live[k].r)
				live = append(live[:k], live[k+1:]...)
			case 3: // resolve a probe, warming the one-entry cache
				if len(probes) > 0 {
					m.Resolve(probes[arg%len(probes)])
				}
			}
			for _, a := range probes {
				want := holder(a)
				r, off, err := m.Resolve(a)
				switch {
				case want == nil && err == nil:
					t.Fatalf("op %d: %#x resolved to %s at %#x, but no live region holds it", i/2, a, r.Name, r.Base)
				case want != nil && (err != nil || r != want || off != uint64(a-want.Base)):
					t.Fatalf("op %d: %#x resolved to %v+%d (%v), want the live region at %#x", i/2, a, r, off, err, want.Base)
				}
			}
			if len(m.regions) != len(live) {
				t.Fatalf("op %d: map holds %d regions, reference %d", i/2, len(m.regions), len(live))
			}
		}
	})
}

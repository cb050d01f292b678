package pcie

import (
	"bytes"
	"testing"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
)

// scatterExtents carves a deterministic scattered extent list out of
// the SSD-internal buffer and seeds each extent with distinct bytes.
func scatterExtents(r *rig) []mem.Extent {
	exts := []mem.Extent{
		{Addr: r.ssdBuf.Base + 16, Len: 700},
		{Addr: r.ssdBuf.Base + 4096, Len: 4096},
		{Addr: r.ssdBuf.Base + 9000, Len: 13},
		{Addr: r.ssdBuf.Base + 20480, Len: 2048},
	}
	seed := byte(7)
	for _, e := range exts {
		buf := make([]byte, e.Len)
		for i := range buf {
			buf[i] = seed + byte(i*31)
		}
		r.mm.Write(e.Addr, buf)
		seed += 97
	}
	return exts
}

// TestDMAVecEquivalence: a vectored gather/scatter must be
// indistinguishable from the equivalent loop of plain DMAs — same
// destination bytes, same simulated completion time, same port byte
// counters. DMAVec is a mechanical batching of the loop, not a
// different transfer model.
func TestDMAVecEquivalence(t *testing.T) {
	for _, gather := range []bool{true, false} {
		vec, loop := newRig(), newRig()
		exts := scatterExtents(vec)
		scatterExtents(loop)
		if !gather {
			// Scatter reads from the contiguous side: seed it.
			total := 0
			for _, e := range exts {
				total += e.Len
			}
			buf := make([]byte, total)
			for i := range buf {
				buf[i] = byte(i * 13)
			}
			vec.mm.Write(vec.dram.Base, buf)
			loop.mm.Write(loop.dram.Base, buf)
		}

		var vecErr, loopErr error
		vec.env.Spawn("vec", func(p *sim.Proc) {
			vecErr = vec.fab.DMAVec(p, vec.ssd, vec.dram.Base, exts, gather)
		})
		loop.env.Spawn("loop", func(p *sim.Proc) {
			off := 0
			for _, e := range exts {
				dst, src := loop.dram.Base+mem.Addr(off), e.Addr
				if !gather {
					dst, src = e.Addr, loop.dram.Base+mem.Addr(off)
				}
				if loopErr = loop.fab.DMA(p, loop.ssd, dst, src, e.Len); loopErr != nil {
					return
				}
				off += e.Len
			}
		})
		vec.env.Run(-1)
		loop.env.Run(-1)
		if vecErr != nil || loopErr != nil {
			t.Fatalf("gather=%v: vec err=%v loop err=%v", gather, vecErr, loopErr)
		}

		if vn, ln := vec.env.Now(), loop.env.Now(); vn != ln {
			t.Errorf("gather=%v: completion time %v != %v", gather, vn, ln)
		}
		total := 0
		for _, e := range exts {
			total += e.Len
		}
		if gather {
			got := vec.mm.Read(vec.dram.Base, total)
			want := loop.mm.Read(loop.dram.Base, total)
			if !bytes.Equal(got, want) {
				t.Errorf("gather=%v: destination bytes differ", gather)
			}
		} else {
			for _, e := range exts {
				got := vec.mm.Read(e.Addr, e.Len)
				want := loop.mm.Read(e.Addr, e.Len)
				if !bytes.Equal(got, want) {
					t.Errorf("gather=%v: extent at %#x differs", gather, e.Addr)
				}
			}
		}
		for i, pair := range [][2]*Port{{vec.ssd, loop.ssd}, {vec.host, loop.host}} {
			if pair[0].BytesIn() != pair[1].BytesIn() || pair[0].BytesOut() != pair[1].BytesOut() {
				t.Errorf("gather=%v: port %d counters vec=(%d,%d) loop=(%d,%d)", gather, i,
					pair[0].BytesIn(), pair[0].BytesOut(), pair[1].BytesIn(), pair[1].BytesOut())
			}
		}
		if vec.fab.HostBytes() != loop.fab.HostBytes() || vec.fab.P2PBytes() != loop.fab.P2PBytes() {
			t.Errorf("gather=%v: fabric byte counters differ", gather)
		}
	}
}

// TestDMAVecEmptyAndBadExtent: zero extents is a no-op. A bad extent
// in the middle of a list stops it with the error the equivalent DMA
// loop returns, without panicking, after moving and charging every
// earlier extent exactly as that loop does; the fabric stays usable.
func TestDMAVecEmptyAndBadExtent(t *testing.T) {
	r := newRig()
	var err error
	r.env.Spawn("vec", func(p *sim.Proc) {
		err = r.fab.DMAVec(p, r.ssd, r.dram.Base, nil, true)
	})
	r.env.Run(-1)
	if err != nil {
		t.Fatal(err)
	}
	if r.env.Now() != 0 {
		t.Fatalf("empty vec advanced time to %v", r.env.Now())
	}

	for _, bad := range []struct {
		name string
		ext  func(r *rig) mem.Extent
	}{
		{"unmapped", func(*rig) mem.Extent { return mem.Extent{Addr: 0x10, Len: 64} }},
		{"not a P2P target", func(r *rig) mem.Extent { return mem.Extent{Addr: r.nicBuf.Base, Len: 64} }},
		{"past its region's end", func(r *rig) mem.Extent { return mem.Extent{Addr: r.ssdBuf.End() - 8, Len: 64} }},
	} {
		vec, loop := newRig(), newRig()
		good := scatterExtents(vec)
		scatterExtents(loop)
		// Both rigs share one address layout, so one list serves both.
		exts := append(append(good[:2:2], bad.ext(vec)), good[2:]...)

		var vecErr, loopErr error
		vec.env.Spawn("vec", func(p *sim.Proc) {
			vecErr = vec.fab.DMAVec(p, vec.ssd, vec.dram.Base, exts, true)
		})
		loop.env.Spawn("loop", func(p *sim.Proc) {
			off := 0
			for _, e := range exts {
				if loopErr = loop.fab.DMA(p, loop.ssd, loop.dram.Base+mem.Addr(off), e.Addr, e.Len); loopErr != nil {
					return
				}
				off += e.Len
			}
		})
		vec.env.Run(-1)
		loop.env.Run(-1)
		if vecErr == nil || loopErr == nil || vecErr.Error() != loopErr.Error() {
			t.Fatalf("%s: vec err=%v, loop err=%v", bad.name, vecErr, loopErr)
		}
		if vn, ln := vec.env.Now(), loop.env.Now(); vn != ln || vn == 0 {
			t.Errorf("%s: stopped at %v, loop at %v", bad.name, vn, ln)
		}
		moved := good[0].Len + good[1].Len
		if !bytes.Equal(vec.mm.Read(vec.dram.Base, moved), loop.mm.Read(loop.dram.Base, moved)) ||
			!bytes.Equal(vec.mm.Read(vec.dram.Base, moved)[good[0].Len:], vec.mm.Read(good[1].Addr, good[1].Len)) {
			t.Errorf("%s: earlier extents not moved", bad.name)
		}
		if vec.ssd.BytesOut() != int64(moved) || loop.ssd.BytesOut() != int64(moved) ||
			vec.host.BytesIn() != loop.host.BytesIn() || vec.fab.HostBytes() != loop.fab.HostBytes() {
			t.Errorf("%s: counters vec=(%d,%d,%d) loop=(%d,%d,%d)", bad.name,
				vec.ssd.BytesOut(), vec.host.BytesIn(), vec.fab.HostBytes(),
				loop.ssd.BytesOut(), loop.host.BytesIn(), loop.fab.HostBytes())
		}

		// The fabric is still usable: the good list runs to completion.
		stopped := vec.env.Now()
		vec.env.Spawn("again", func(p *sim.Proc) {
			vecErr = vec.fab.DMAVec(p, vec.ssd, vec.ddr3.Base, good, true)
		})
		vec.env.Run(-1)
		if vecErr != nil || vec.env.Now() <= stopped {
			t.Fatalf("%s: retry err=%v, time %v -> %v", bad.name, vecErr, stopped, vec.env.Now())
		}
		off := 0
		for _, e := range good {
			if !bytes.Equal(vec.mm.Read(vec.ddr3.Base+mem.Addr(off), e.Len), vec.mm.Read(e.Addr, e.Len)) {
				t.Errorf("%s: retry extent at %#x not moved", bad.name, e.Addr)
			}
			off += e.Len
		}
	}
}

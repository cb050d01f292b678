package pcie

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
)

type rig struct {
	env    *sim.Env
	mm     *mem.Map
	fab    *Fabric
	host   *Port
	ssd    *Port
	nic    *Port
	gpu    *Port
	hdc    *Port
	dram   *mem.Region
	ssdBuf *mem.Region // device-internal, NOT a P2P target
	nicBuf *mem.Region // device-internal, NOT a P2P target
	vram   *mem.Region // exposed P2P target
	ddr3   *mem.Region // exposed P2P target (HDC on-board DRAM)
}

func newRig() *rig {
	env := sim.NewEnv()
	mm := mem.NewMap()
	fab := NewFabric(env, mm, DefaultParams())
	r := &rig{env: env, mm: mm, fab: fab}
	r.host = fab.AddPort("root-complex")
	r.ssd = fab.AddPort("nvme-ssd")
	r.nic = fab.AddPort("nic")
	r.gpu = fab.AddPort("gpu")
	r.hdc = fab.AddPort("hdc-engine")
	r.dram = mm.AddRegion("host-dram", mem.HostDRAM, 16<<20, true)
	r.ssdBuf = mm.AddRegion("ssd-internal", mem.DeviceInternal, 1<<20, false)
	r.nicBuf = mm.AddRegion("nic-internal", mem.DeviceInternal, 1<<20, false)
	r.vram = mm.AddRegion("gpu-vram", mem.GPUVRAM, 16<<20, true)
	r.ddr3 = mm.AddRegion("hdc-ddr3", mem.DeviceDRAM, 16<<20, true)
	fab.Attach(r.host, r.dram)
	fab.Attach(r.ssd, r.ssdBuf)
	fab.Attach(r.nic, r.nicBuf)
	fab.Attach(r.gpu, r.vram)
	fab.Attach(r.hdc, r.ddr3)
	return r
}

func TestDMAMovesRealBytes(t *testing.T) {
	r := newRig()
	payload := []byte("block 42 contents, for real")
	r.mm.Write(r.ssdBuf.Base, payload)
	var err error
	r.env.Spawn("ssd-dma", func(p *sim.Proc) {
		// SSD (DMA master) writes its internal buffer to host DRAM.
		err = r.fab.DMA(p, r.ssd, r.dram.Base+4096, r.ssdBuf.Base, len(payload))
	})
	r.env.Run(-1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.mm.Read(r.dram.Base+4096, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
	if r.fab.HostBytes() != int64(len(payload)) || r.fab.P2PBytes() != 0 {
		t.Fatalf("host=%d p2p=%d", r.fab.HostBytes(), r.fab.P2PBytes())
	}
}

func TestDMATiming(t *testing.T) {
	r := newRig()
	var end sim.Time
	r.env.Spawn("dma", func(p *sim.Proc) {
		r.fab.MustDMA(p, r.ssd, r.dram.Base, r.ssdBuf.Base, 4096)
		end = p.Now()
	})
	r.env.Run(-1)
	params := DefaultParams()
	want := params.PropLatency + params.DMASetup +
		2*sim.BpsToTime(4096, params.LinkBps) + sim.BpsToTime(4096, params.CoreBps)
	if end != want {
		t.Fatalf("DMA end = %v, want %v", end, want)
	}
}

func TestP2PPolicySSDToNICForbidden(t *testing.T) {
	r := newRig()
	var err error
	r.env.Spawn("dma", func(p *sim.Proc) {
		// The paper's key constraint: SSD cannot DMA into NIC internal
		// memory — neither device exposes a payload BAR.
		err = r.fab.DMA(p, r.ssd, r.nicBuf.Base, r.ssdBuf.Base, 4096)
	})
	r.env.Run(-1)
	if err == nil {
		t.Fatal("SSD->NIC direct DMA was allowed")
	}
	if !strings.Contains(err.Error(), "not a P2P target") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestP2PPolicySSDToGPUAllowed(t *testing.T) {
	r := newRig()
	payload := []byte("gpudirect-style peer write")
	r.mm.Write(r.ssdBuf.Base, payload)
	var err error
	r.env.Spawn("dma", func(p *sim.Proc) {
		err = r.fab.DMA(p, r.ssd, r.vram.Base, r.ssdBuf.Base, len(payload))
	})
	r.env.Run(-1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.mm.Read(r.vram.Base, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("vram = %q", got)
	}
	if r.fab.P2PBytes() != int64(len(payload)) {
		t.Fatalf("p2p bytes = %d", r.fab.P2PBytes())
	}
}

func TestP2PPolicyHDCDDR3IsTarget(t *testing.T) {
	r := newRig()
	var errIn, errOut error
	r.env.Spawn("dma", func(p *sim.Proc) {
		// SSD writes payload into HDC DDR3, then NIC reads it out:
		// the two legs of a DCS-ctrl SSD->NIC transfer.
		errIn = r.fab.DMA(p, r.ssd, r.ddr3.Base, r.ssdBuf.Base, 4096)
		errOut = r.fab.DMA(p, r.nic, r.nicBuf.Base, r.ddr3.Base, 4096)
	})
	r.env.Run(-1)
	if errIn != nil || errOut != nil {
		t.Fatalf("in=%v out=%v", errIn, errOut)
	}
	if r.fab.HostBytes() != 0 {
		t.Fatalf("host DRAM touched: %d bytes", r.fab.HostBytes())
	}
}

func TestLocalDMAUsesNoBus(t *testing.T) {
	r := newRig()
	r.mm.Write(r.ddr3.Base, []byte("abcd"))
	var end sim.Time
	r.env.Spawn("dma", func(p *sim.Proc) {
		r.fab.MustDMA(p, r.hdc, r.ddr3.Base+1024, r.ddr3.Base, 4)
		end = p.Now()
	})
	r.env.Run(-1)
	if end != DefaultParams().DMASetup {
		t.Fatalf("local DMA took %v", end)
	}
	if r.hdc.BytesIn() != 0 || r.hdc.BytesOut() != 0 {
		t.Fatal("local DMA counted as bus traffic")
	}
	if got := r.mm.Read(r.ddr3.Base+1024, 4); !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("local copy = %q", got)
	}
}

func TestConcurrentDMANoDeadlock(t *testing.T) {
	r := newRig()
	done := 0
	// Cross traffic: ssd->hdc and hdc->ssd-direction (gpu->dram etc.)
	// exercise opposite-order link acquisition.
	r.env.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			r.fab.MustDMA(p, r.ssd, r.ddr3.Base, r.ssdBuf.Base, 4096)
		}
		done++
	})
	r.env.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			r.fab.MustDMA(p, r.hdc, r.dram.Base, r.ddr3.Base, 4096)
		}
		done++
	})
	r.env.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			r.fab.MustDMA(p, r.gpu, r.vram.Base, r.dram.Base, 4096)
		}
		done++
	})
	r.env.Run(-1)
	if done != 3 {
		t.Fatalf("completed %d/3 streams (deadlock?)", done)
	}
	if r.env.Live() != 0 {
		t.Fatalf("%d processes stuck", r.env.Live())
	}
}

func TestPortByteCounters(t *testing.T) {
	r := newRig()
	r.env.Spawn("dma", func(p *sim.Proc) {
		r.fab.MustDMA(p, r.ssd, r.ddr3.Base, r.ssdBuf.Base, 1000)
		r.fab.MustDMA(p, r.ssd, r.ddr3.Base+1000, r.ssdBuf.Base, 500)
	})
	r.env.Run(-1)
	if r.ssd.BytesOut() != 1500 {
		t.Fatalf("ssd out = %d", r.ssd.BytesOut())
	}
	if r.hdc.BytesIn() != 1500 {
		t.Fatalf("hdc in = %d", r.hdc.BytesIn())
	}
}

func TestPostedWriteDoorbell(t *testing.T) {
	r := newRig()
	doorReg := r.mm.AddRegion("ssd-doorbells", mem.MMIO, 4096, true)
	r.fab.Attach(r.ssd, doorReg)
	var rang uint64
	var at sim.Time
	doorReg.SetWriteHook(func(off uint64, n int) {
		rang = binary.LittleEndian.Uint64(doorReg.Bytes(off, 8))
		at = r.env.Now()
	})
	r.fab.PostedWrite(doorReg.Base+16, 7)
	r.env.Run(-1)
	if rang != 7 {
		t.Fatalf("doorbell value = %d", rang)
	}
	if at != DefaultParams().MMIOLatency {
		t.Fatalf("doorbell delivered at %v", at)
	}
}

func TestMSIDelivery(t *testing.T) {
	r := newRig()
	fired := 0
	r.fab.OnMSI(3, func() { fired++ })
	r.fab.RaiseMSI(3)
	r.fab.RaiseMSI(3)
	r.env.Run(-1)
	if fired != 2 {
		t.Fatalf("MSI fired %d times", fired)
	}
}

func TestMSIUnknownVectorPanics(t *testing.T) {
	r := newRig()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.fab.RaiseMSI(99)
}

func TestDoubleAttachPanics(t *testing.T) {
	r := newRig()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.fab.Attach(r.nic, r.dram)
}

func TestLE64RoundTrip(t *testing.T) {
	var b [8]byte
	for _, v := range []uint64{0, 1, 0xff, 0xdeadbeefcafe, ^uint64(0)} {
		putLE64(b[:], v)
		if binary.LittleEndian.Uint64(b[:]) != v {
			t.Fatalf("round trip %#x", v)
		}
	}
}

// TestUserMappingDMA: a device DMAs a caller's bytes in place through
// an attached user mapping, a DMA into it panics (the mapping is
// read-only), and an unmapped mapping still attached is a stale owner
// entry until Detach removes it.
func TestUserMappingDMA(t *testing.T) {
	r := newRig()
	payload := []byte("the caller's bytes, DMA'd in place")
	u := r.mm.MapUser("payload", payload)
	r.fab.Attach(r.host, u)
	var intoErr any
	r.env.Spawn("nic-dma", func(p *sim.Proc) {
		r.fab.MustDMA(p, r.nic, r.nicBuf.Base, u.Base, len(payload))
		func() {
			defer func() { intoErr = recover() }()
			r.fab.MustDMA(p, r.nic, u.Base, r.nicBuf.Base, 8)
		}()
	})
	r.env.Run(-1)
	if got := r.mm.Read(r.nicBuf.Base, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("NIC read %q", got)
	}
	if s, _ := intoErr.(string); !strings.Contains(s, "read-only user mapping") {
		t.Fatalf("DMA into the mapping: %v", intoErr)
	}
	if r.fab.HostBytes() != int64(len(payload)) {
		t.Fatalf("host bytes %d, want %d", r.fab.HostBytes(), len(payload))
	}
	if n := r.fab.StaleOwners(); n != 0 {
		t.Fatalf("%d stale owner entries while the mapping is live", n)
	}
	r.mm.Unmap(u)
	if n := r.fab.StaleOwners(); n != 1 {
		t.Fatalf("%d stale owner entries after an Unmap without Detach, want 1", n)
	}
	r.fab.Detach(u)
	if n := r.fab.StaleOwners(); n != 0 {
		t.Fatalf("%d stale owner entries after Detach", n)
	}
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, "not attached") {
			t.Fatalf("second Detach: %v", s)
		}
	}()
	r.fab.Detach(u)
}

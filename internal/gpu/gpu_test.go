package gpu

import (
	"bytes"
	"crypto/md5"
	"hash/crc32"
	"testing"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/ndp"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

type rig struct {
	env  *sim.Env
	mm   *mem.Map
	fab  *pcie.Fabric
	gpu  *GPU
	dram *mem.Region
}

func newRig() *rig {
	env := sim.NewEnv()
	mm := mem.NewMap()
	fab := pcie.NewFabric(env, mm, pcie.DefaultParams())
	host := fab.AddPort("root")
	dram := mm.AddRegion("dram", mem.HostDRAM, 16<<20, true)
	fab.Attach(host, dram)
	g := NewGPU(env, fab, "k20m", DefaultParams())
	return &rig{env: env, mm: mm, fab: fab, gpu: g, dram: dram}
}

func TestCopyHostToVRAMAndBack(t *testing.T) {
	r := newRig()
	payload := bytes.Repeat([]byte("cuda"), 1024)
	src := r.dram.Alloc(uint64(len(payload)), 64)
	r.mm.Write(src, payload)
	vbuf := r.gpu.VRAM.Alloc(uint64(len(payload)), 64)
	back := r.dram.Alloc(uint64(len(payload)), 64)
	r.env.Spawn("host", func(p *sim.Proc) {
		if err := r.gpu.Copy(p, vbuf, src, len(payload)); err != nil {
			t.Errorf("h2d: %v", err)
		}
		if err := r.gpu.Copy(p, back, vbuf, len(payload)); err != nil {
			t.Errorf("d2h: %v", err)
		}
	})
	r.env.Run(-1)
	if got := r.mm.Read(back, len(payload)); !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
	if _, copied := r.gpu.Stats(); copied != 0 {
		// copied counts kernel-processed bytes, not copies
		t.Fatalf("kernel bytes = %d", copied)
	}
}

func TestMD5KernelMatchesStdlib(t *testing.T) {
	r := newRig()
	payload := bytes.Repeat([]byte{0x5A}, 64<<10)
	vbuf := r.gpu.VRAM.Alloc(uint64(len(payload)), 64)
	vres := r.gpu.VRAM.Alloc(64, 64)
	r.mm.Write(vbuf, payload)
	var digest []byte
	r.env.Spawn("host", func(p *sim.Proc) {
		var err error
		digest, err = r.gpu.RunHashKernel(p, ndp.MD5{}, vbuf, len(payload), vres)
		if err != nil {
			t.Error(err)
		}
	})
	r.env.Run(-1)
	want := md5.Sum(payload)
	if !bytes.Equal(digest, want[:]) {
		t.Fatal("MD5 mismatch")
	}
	if got := r.mm.Read(vres, 16); !bytes.Equal(got, want[:]) {
		t.Fatal("digest not written to VRAM")
	}
}

func TestCRC32Kernel(t *testing.T) {
	r := newRig()
	payload := []byte("hdfs balancer block")
	vbuf := r.gpu.VRAM.Alloc(4096, 64)
	vres := r.gpu.VRAM.Alloc(64, 64)
	r.mm.Write(vbuf, payload)
	var digest []byte
	r.env.Spawn("host", func(p *sim.Proc) {
		digest, _ = r.gpu.RunHashKernel(p, ndp.CRC32{}, vbuf, len(payload), vres)
	})
	r.env.Run(-1)
	c := crc32.ChecksumIEEE(payload)
	want := []byte{byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)}
	if !bytes.Equal(digest, want) {
		t.Fatal("CRC mismatch")
	}
}

func TestKernelRequiresVRAMOperands(t *testing.T) {
	r := newRig()
	hostBuf := r.dram.Alloc(4096, 64)
	vres := r.gpu.VRAM.Alloc(64, 64)
	var err error
	r.env.Spawn("host", func(p *sim.Proc) {
		_, err = r.gpu.RunHashKernel(p, ndp.MD5{}, hostBuf, 100, vres)
	})
	r.env.Run(-1)
	if err == nil {
		t.Fatal("kernel over host memory accepted")
	}
}

func TestKernelLatencyModel(t *testing.T) {
	r := newRig()
	vbuf := r.gpu.VRAM.Alloc(64<<10, 64)
	vres := r.gpu.VRAM.Alloc(64, 64)
	n := 64 << 10
	var took sim.Time
	r.env.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		r.gpu.RunHashKernel(p, ndp.MD5{}, vbuf, n, vres)
		took = p.Now() - start
	})
	r.env.Run(-1)
	params := DefaultParams()
	want := params.LaunchLat + params.CompleteLat + sim.BpsToTime(n, params.HashBps)
	if took != want {
		t.Fatalf("kernel took %v, want %v", took, want)
	}
}

func TestKernelsSerialize(t *testing.T) {
	r := newRig()
	vbuf := r.gpu.VRAM.Alloc(4096, 64)
	vres := r.gpu.VRAM.Alloc(64, 64)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		r.env.Spawn("host", func(p *sim.Proc) {
			r.gpu.RunHashKernel(p, ndp.MD5{}, vbuf, 4096, vres)
			ends = append(ends, p.Now())
		})
	}
	r.env.Run(-1)
	if ends[1] < 2*DefaultParams().LaunchLat {
		t.Fatalf("kernels overlapped: %v", ends)
	}
	if k, _ := r.gpu.Stats(); k != 2 {
		t.Fatalf("kernels = %d", k)
	}
}

func TestPeerDMAIntoVRAM(t *testing.T) {
	// A peer device (not the GPU, not the host) can DMA into VRAM —
	// the GPUDirect property the SW-P2P baseline depends on.
	r := newRig()
	peer := r.fab.AddPort("peer-dev")
	peerBuf := r.mm.AddRegion("peer-int", mem.DeviceInternal, 1<<20, false)
	r.fab.Attach(peer, peerBuf)
	r.mm.Write(peerBuf.Base, []byte("peer payload"))
	vdst := r.gpu.VRAM.Alloc(4096, 64)
	var err error
	r.env.Spawn("peer", func(p *sim.Proc) {
		err = r.fab.DMA(p, peer, vdst, peerBuf.Base, 12)
	})
	r.env.Run(-1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.mm.Read(vdst, 12); !bytes.Equal(got, []byte("peer payload")) {
		t.Fatal("peer write mismatch")
	}
}

package core

import (
	"fmt"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Cluster checkpoint/restore (DESIGN.md §17). A checkpoint is legal
// only at full quiescence (Env.Quiescent): every in-flight transfer
// delivered, every queue drained, service processes parked. The
// snapshot then reduces to architectural state — kernel counters,
// memory images, device cursors, per-connection stream state — in a
// versioned, length-prefixed, digest-trailed binary format whose
// encode order is fully deterministic (map state goes through
// sim.SortedKeys everywhere).
//
// Restore never rebuilds processes from bytes. The caller constructs
// a fresh cluster from the identical configuration, replays the
// identical setup (Prepare), settles it to quiescence, and then
// Restore overlays the captured state and forces the kernel clock.
// From that instant every future event carries the same (time, seq)
// stamp the straight-through run would produce, so the event
// fingerprint of the forked continuation is byte-identical.

// Snapshot serializes the cluster at a quiescent instant.
func (c *Cluster) Snapshot() ([]byte, error) {
	if !c.Env.Quiescent() {
		return nil, fmt.Errorf("core: snapshot of non-quiescent cluster")
	}
	es, err := c.Env.CheckpointState()
	if err != nil {
		return nil, err
	}
	w := snap.NewWriter(snap.Header{
		Version: snap.Version,
		Flags:   c.snapFlags(),
		Config:  c.ConfigFingerprint(),
	})

	w.Section("env")
	w.I64(int64(es.Now))
	w.U64(es.Seq)
	w.U64(es.Steps)
	w.U64(es.Fused)
	w.U64(es.IOs)
	w.U64(es.Segments)
	w.U64(es.SegFrames)
	w.EndSection()

	w.Section("cluster")
	w.U64(c.nextConn)
	w.U64(c.ports.Allocated())
	w.EndSection()

	w.Section("fault")
	inj := c.Server.Params.Faults
	w.Bool(inj != nil)
	if inj != nil {
		if err := inj.SnapSave(w); err != nil {
			return nil, err
		}
	}
	w.EndSection()

	for _, n := range []*Node{c.Server, c.Client} {
		if err := n.snapSave(w); err != nil {
			return nil, err
		}
	}
	return w.Finish(), nil
}

// Restore overlays a snapshot onto a freshly built, identically
// configured, settled cluster. The caller must have run the same
// setup (file staging, connection opens, workload preparation) that
// preceded the checkpointed run's warm phase.
func (c *Cluster) Restore(data []byte) error { return c.restore(data, true) }

// RestoreTrusted is Restore without the envelope digest check, for
// snapshots that never left this process (see snap.OpenTrusted).
func (c *Cluster) RestoreTrusted(data []byte) error { return c.restore(data, false) }

func (c *Cluster) restore(data []byte, verify bool) error {
	if !c.Env.Quiescent() {
		return fmt.Errorf("core: restore into non-quiescent cluster")
	}
	open := snap.OpenTrusted
	if verify {
		open = snap.Open
	}
	r, h, err := open(data)
	if err != nil {
		return err
	}
	if h.Flags != c.snapFlags() {
		return fmt.Errorf("core: snapshot flags %#x, cluster runs %#x (kernel knobs differ)", h.Flags, c.snapFlags())
	}
	if h.Config != c.ConfigFingerprint() {
		return fmt.Errorf("core: snapshot config %#x, cluster is %#x (configuration differs)", h.Config, c.ConfigFingerprint())
	}

	if err := r.Section("env"); err != nil {
		return err
	}
	es := sim.EnvState{
		Now: sim.Time(r.I64()), Seq: r.U64(), Steps: r.U64(),
		Fused: r.U64(), IOs: r.U64(), Segments: r.U64(), SegFrames: r.U64(),
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := r.Section("cluster"); err != nil {
		return err
	}
	nextConn, alloced := r.U64(), r.U64()
	if err := r.EndSection(); err != nil {
		return err
	}
	if nextConn != c.nextConn {
		return fmt.Errorf("core: snapshot has %d connections opened, cluster has %d (setup differs)", nextConn-1, c.nextConn-1)
	}
	if alloced != c.ports.Allocated() {
		return fmt.Errorf("core: snapshot allocated %d port pairs, cluster %d (setup differs)", alloced, c.ports.Allocated())
	}

	if err := r.Section("fault"); err != nil {
		return err
	}
	hasInj := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasInj != (c.Server.Params.Faults != nil) {
		return fmt.Errorf("core: snapshot fault injection %v, cluster %v", hasInj, c.Server.Params.Faults != nil)
	}
	if hasInj {
		if err := c.Server.Params.Faults.SnapLoad(r); err != nil {
			return err
		}
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	for _, n := range []*Node{c.Server, c.Client} {
		if err := n.snapLoad(r); err != nil {
			return err
		}
	}
	// The overlays above prime worker pools (SSD exec, async DMA) by
	// spawning workers that park on their job queues; settle those
	// spawn events now so every pool reaches its checkpointed
	// population. Forcing the kernel counters comes last: it erases
	// the settle dispatches from the clock and counters, and a failed
	// restore leaves the clock untouched.
	c.Env.Run(-1)
	return c.Env.ForceCheckpointState(es)
}

// snapFlags encodes the kernel knobs the schedule depends on; a
// snapshot only restores into a cluster running the same knobs. The
// handler-proc bit is constant — the model loops always run as handler
// procs — and stays so that a checkpoint without it fails the check.
func (c *Cluster) snapFlags() uint32 {
	f := snap.FlagHandlerProcs
	if c.Env.Fusion() {
		f |= snap.FlagFusion
	}
	if c.Env.WireFidelity() == sim.WireFlow {
		f |= snap.FlagWireFlow
	}
	return f
}

// ConfigFingerprint hashes the structural configuration — everything
// that decides which regions, queues, and devices exist. Two clusters
// with equal fingerprints accept each other's snapshots.
func (c *Cluster) ConfigFingerprint() uint64 {
	prof := "none"
	if c.Server.Params.Faults != nil {
		prof = c.Server.Params.Faults.ProfileUsed().Name
	}
	return snap.HashString(fmt.Sprintf(
		"server=%s|client=%s|ssds=%d|hnq=%d|enq=%d|arena=%d|fault=%s",
		c.Server.Kind, c.Client.Kind,
		c.Server.Params.NumSSDs, c.Server.Params.HostNICQueues,
		c.Server.Params.EngineNICQueues, c.Server.Params.HostArenaBytes, prof))
}

// snapSave encodes one node, one section per subsystem, in fixed
// order. Section names are prefixed with the node name so server and
// client state can never be transposed.
func (n *Node) snapSave(w *snap.Writer) error {
	sec := func(s string) { w.Section(n.Name + "." + s) }

	sec("node")
	if err := n.saveNodeState(w); err != nil {
		return err
	}
	w.EndSection()

	sec("mem")
	if err := n.MM.SnapSave(w); err != nil {
		return fmt.Errorf("%s: %w", n.Name, err)
	}
	w.EndSection()

	sec("host")
	if err := n.Host.SnapSave(w); err != nil {
		return fmt.Errorf("%s: %w", n.Name, err)
	}
	w.EndSection()

	sec("fs")
	w.U32(uint32(len(n.FSs)))
	for _, fs := range n.FSs {
		if err := fs.SnapSave(w); err != nil {
			return fmt.Errorf("%s: %w", n.Name, err)
		}
	}
	w.EndSection()

	sec("ssd")
	w.U32(uint32(len(n.SSDs)))
	for _, ssd := range n.SSDs {
		if err := ssd.SnapSave(w); err != nil {
			return fmt.Errorf("%s: %w", n.Name, err)
		}
	}
	w.EndSection()

	sec("pcie")
	if err := n.Fab.SnapSave(w); err != nil {
		return fmt.Errorf("%s: %w", n.Name, err)
	}
	w.EndSection()

	sec("nic")
	if err := n.NIC.SnapSave(w); err != nil {
		return err
	}
	w.EndSection()

	sec("rings")
	if len(n.pendTx) != 0 {
		return fmt.Errorf("core: %s: checkpoint with %d unswept transmit jobs", n.Name, len(n.pendTx))
	}
	w.U32(uint32(len(n.nvmeRings)))
	for _, ring := range n.nvmeRings {
		if err := ring.SnapSave(w); err != nil {
			return fmt.Errorf("%s: %w", n.Name, err)
		}
	}
	if err := n.sendRing.SnapSave(w); err != nil {
		return err
	}
	w.U32(uint32(len(n.recvRings)))
	for _, rr := range n.recvRings {
		if err := rr.SnapSave(w); err != nil {
			return err
		}
	}
	w.EndSection()

	sec("gpu")
	w.Bool(n.GPU != nil)
	if n.GPU != nil {
		if err := n.GPU.SnapSave(w); err != nil {
			return err
		}
	}
	w.EndSection()

	sec("hdc")
	w.Bool(n.Engine != nil)
	if n.Engine != nil {
		if err := n.Engine.SnapSave(w); err != nil {
			return err
		}
		if err := n.Driver.SnapSave(w); err != nil {
			return err
		}
	}
	w.EndSection()
	return nil
}

// saveNodeState encodes the node-local software state: host-stack
// connections (sequence numbers plus the unconsumed reassembled
// stream), staging-arena cursors, fallback/retry counters, and the
// receive-wake park order (park order is wake order; see
// sim.Cond.WaiterNames).
func (n *Node) saveNodeState(w *snap.Writer) error {
	w.Bool(n.adopted)
	w.I64(n.fallbacks)
	w.I64(n.hostNVMeRetries)
	w.U64(n.arenaOff)
	w.U64(n.vramOff)
	w.Int(n.nextDev)
	w.Int(n.nextRSS)

	ids := sim.SortedKeys(n.conns)
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		cn := n.conns[id]
		w.U64(id)
		w.U32(cn.txSeq)
		w.U32(cn.rxSeq)
		w.Bytes(cn.stream[cn.rd:])
	}

	names := n.rxWake.WaiterNames()
	w.U32(uint32(len(names)))
	for _, name := range names {
		w.Str(name)
	}
	return nil
}

// snapLoad decodes one node, verifying that setup-determined
// structure matches before overlaying captured state.
func (n *Node) snapLoad(r *snap.Reader) error {
	sec := func(s string) error { return r.Section(n.Name + "." + s) }

	if err := sec("node"); err != nil {
		return err
	}
	if err := n.loadNodeState(r); err != nil {
		return err
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := sec("mem"); err != nil {
		return err
	}
	if err := n.MM.SnapLoad(r); err != nil {
		return fmt.Errorf("%s: %w", n.Name, err)
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := sec("host"); err != nil {
		return err
	}
	if err := n.Host.SnapLoad(r); err != nil {
		return fmt.Errorf("%s: %w", n.Name, err)
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := sec("fs"); err != nil {
		return err
	}
	nFS := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nFS != len(n.FSs) {
		return fmt.Errorf("core: %s: snapshot has %d filesystems, node has %d", n.Name, nFS, len(n.FSs))
	}
	for _, fs := range n.FSs {
		if err := fs.SnapLoad(r); err != nil {
			return fmt.Errorf("%s: %w", n.Name, err)
		}
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := sec("ssd"); err != nil {
		return err
	}
	nSSD := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nSSD != len(n.SSDs) {
		return fmt.Errorf("core: %s: snapshot has %d SSDs, node has %d", n.Name, nSSD, len(n.SSDs))
	}
	for _, ssd := range n.SSDs {
		if err := ssd.SnapLoad(r); err != nil {
			return fmt.Errorf("%s: %w", n.Name, err)
		}
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := sec("pcie"); err != nil {
		return err
	}
	if err := n.Fab.SnapLoad(r); err != nil {
		return fmt.Errorf("%s: %w", n.Name, err)
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := sec("nic"); err != nil {
		return err
	}
	if err := n.NIC.SnapLoad(r); err != nil {
		return err
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := sec("rings"); err != nil {
		return err
	}
	nRings := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nRings != len(n.nvmeRings) {
		return fmt.Errorf("core: %s: snapshot has %d NVMe rings, node has %d", n.Name, nRings, len(n.nvmeRings))
	}
	for _, ring := range n.nvmeRings {
		if err := ring.SnapLoad(r); err != nil {
			return fmt.Errorf("%s: %w", n.Name, err)
		}
	}
	if err := n.sendRing.SnapLoad(r); err != nil {
		return err
	}
	nRR := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nRR != len(n.recvRings) {
		return fmt.Errorf("core: %s: snapshot has %d receive rings, node has %d", n.Name, nRR, len(n.recvRings))
	}
	for _, rr := range n.recvRings {
		if err := rr.SnapLoad(r); err != nil {
			return err
		}
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := sec("gpu"); err != nil {
		return err
	}
	hasGPU := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasGPU != (n.GPU != nil) {
		return fmt.Errorf("core: %s: snapshot GPU presence %v, node %v", n.Name, hasGPU, n.GPU != nil)
	}
	if hasGPU {
		if err := n.GPU.SnapLoad(r); err != nil {
			return err
		}
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	if err := sec("hdc"); err != nil {
		return err
	}
	hasHDC := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasHDC != (n.Engine != nil) {
		return fmt.Errorf("core: %s: snapshot engine presence %v, node %v", n.Name, hasHDC, n.Engine != nil)
	}
	if hasHDC {
		if err := n.Engine.SnapLoad(r); err != nil {
			return err
		}
		if err := n.Driver.SnapLoad(r); err != nil {
			return err
		}
	}
	return r.EndSection()
}

func (n *Node) loadNodeState(r *snap.Reader) error {
	n.adopted = r.Bool()
	n.fallbacks = r.I64()
	n.hostNVMeRetries = r.I64()
	n.arenaOff = r.U64()
	n.vramOff = r.U64()
	nextDev, nextRSS := r.Int(), r.Int()
	nConn := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nextDev != n.nextDev {
		return fmt.Errorf("core: %s: snapshot file-placement cursor %d, node %d (setup differs)", n.Name, nextDev, n.nextDev)
	}
	if nextRSS != n.nextRSS {
		return fmt.Errorf("core: %s: snapshot RSS cursor %d, node %d (setup differs)", n.Name, nextRSS, n.nextRSS)
	}
	if nConn != len(n.conns) {
		return fmt.Errorf("core: %s: snapshot has %d host connections, node has %d", n.Name, nConn, len(n.conns))
	}
	for i := 0; i < nConn; i++ {
		id := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		cn, ok := n.conns[id]
		if !ok {
			return fmt.Errorf("core: %s: snapshot connection %d absent on node", n.Name, id)
		}
		cn.txSeq = r.U32()
		cn.rxSeq = r.U32()
		stream := r.Bytes()
		if err := r.Err(); err != nil {
			return err
		}
		cn.stream = append(cn.stream[:0], stream...)
		cn.rd = 0
	}

	nNames := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	names := make([]string, nNames)
	for i := range names {
		names[i] = r.Str()
	}
	if err := r.Err(); err != nil {
		return err
	}
	return n.rxWake.ReorderWaiters(names)
}

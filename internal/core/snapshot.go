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
// sim.SortedKeys or sim.SnapMap everywhere). Each object describes
// its state once, in a Snap method that both saves and loads.
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
	es, err := c.Env.CheckpointState()
	if err != nil {
		return nil, err
	}
	sc := snap.NewSaver(snap.Header{
		Version: snap.Version,
		Config:  c.ConfigFingerprint(),
	})
	c.snap(sc, &es)
	return sc.Finish()
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
	sc, h, err := open(data)
	if err != nil {
		return err
	}
	if h.Config != c.ConfigFingerprint() {
		return fmt.Errorf("core: snapshot config %#x, cluster is %#x (configuration differs)", h.Config, c.ConfigFingerprint())
	}
	var es sim.EnvState
	c.snap(sc, &es)
	if err := sc.Err(); err != nil {
		return err
	}
	// The overlay primes worker pools (SSD exec, async DMA) by spawning
	// workers that park on their job queues; settle those spawn events
	// now so every pool reaches its checkpointed population. Forcing
	// the kernel counters comes last: it erases the settle dispatches
	// from the clock and counters, and a failed restore leaves the
	// clock untouched.
	c.Env.Run(-1)
	return c.Env.ForceCheckpointState(es)
}

// snap codes the cluster: kernel counters, setup cursors, the fault
// injector, then each node.
func (c *Cluster) snap(sc *snap.Codec, es *sim.EnvState) {
	sc.Section("env")
	es.Snap(sc)
	sc.EndSection()

	sc.Section("cluster")
	snap.Check(sc, "connections opened", c.nextConn, sc.U64)
	snap.Check(sc, "port pairs allocated", c.ports.Allocated(), sc.U64)
	sc.EndSection()

	sc.Section("fault")
	inj := c.Server.Params.Faults
	snap.Check(sc, "fault injection", inj != nil, sc.Bool)
	if inj != nil {
		inj.Snap(sc)
	}
	sc.EndSection()

	c.Server.snap(sc)
	c.Client.snap(sc)
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

// snap codes one node, one section per subsystem, in fixed order.
// Section names are prefixed with the node name so server and client
// state can never be transposed.
func (n *Node) snap(c *snap.Codec) {
	sec := func(s string) { c.Section(n.Name + "." + s) }

	sec("node")
	n.snapState(c)
	c.EndSection()

	sec("mem")
	n.MM.Snap(c)
	c.EndSection()

	sec("host")
	n.Host.Snap(c)
	c.EndSection()

	sec("fs")
	snap.Check(c, "filesystems", uint32(len(n.FSs)), c.U32)
	for _, fs := range n.FSs {
		fs.Snap(c)
	}
	c.EndSection()

	sec("ssd")
	snap.Check(c, "SSDs", uint32(len(n.SSDs)), c.U32)
	for _, ssd := range n.SSDs {
		ssd.Snap(c)
	}
	c.EndSection()

	sec("pcie")
	n.Fab.Snap(c, n.NIC.RxDMATagSlots())
	c.EndSection()

	sec("nic")
	n.NIC.Snap(c)
	c.EndSection()

	sec("rings")
	if k := n.sendRing.Tracked(); k != 0 {
		c.Failf("%d unswept transmit jobs", k)
	}
	snap.Check(c, "NVMe rings", uint32(len(n.nvmeRings)), c.U32)
	for _, ring := range n.nvmeRings {
		ring.Snap(c)
	}
	n.sendRing.Snap(c)
	snap.Check(c, "receive rings", uint32(len(n.recvRings)), c.U32)
	for _, rr := range n.recvRings {
		rr.Snap(c)
	}
	c.EndSection()

	sec("gpu")
	snap.Check(c, "GPU presence", n.GPU != nil, c.Bool)
	if n.GPU != nil {
		n.GPU.Snap(c)
	}
	c.EndSection()

	sec("hdc")
	snap.Check(c, "engine presence", n.Engine != nil, c.Bool)
	if n.Engine != nil {
		n.Engine.Snap(c)
		n.Driver.Snap(c)
	}
	c.EndSection()
}

// snapState codes the node-local software state: host-stack
// connections (sequence numbers plus the unconsumed reassembled
// stream), fallback/retry counters, and the receive-wake park order
// (park order is wake order; see sim.Cond.SnapWaiters). The staging
// allocators have no state to code: a quiescent node has every
// staging buffer back, and a freshly built one starts all free.
func (n *Node) snapState(c *snap.Codec) {
	if spans, bytes := n.StagingLive(); spans != 0 {
		c.Failf("%s: %d staging buffers (%d bytes) outstanding", n.Name, spans, bytes)
	}
	c.Bool(&n.adopted)
	c.I64(&n.fallbacks)
	c.I64(&n.hostNVMeRetries)
	snap.Check(c, "file-placement cursor", n.nextDev, c.Int)
	snap.Check(c, "RSS cursor", n.nextRSS, c.Int)
	ids := sim.SortedKeys(n.conns)
	snap.Check(c, "host connections", uint32(len(ids)), c.U32)
	for _, id := range ids {
		cn := n.conns[id]
		snap.Check(c, "host connection", id, c.U64)
		c.U32(&cn.txSeq)
		c.U32(&cn.rxSeq)
		stream := cn.stream[cn.rd:]
		c.Bytes(&stream)
		if c.Loading() {
			cn.stream, cn.rd = stream, 0
		}
	}
	n.rxWake.SnapWaiters(c)
}

package nic

// Wire timeline goldens (DESIGN.md §13). Every rig below drives
// scripted traffic between two back-to-back NICs and hashes the
// complete host-visible timeline — the instant, buffer address,
// completion entry, and payload checksum of every delivered frame,
// plus final device counters — together with the run's kernel event
// count. The constants were recorded on the per-frame wire path while
// an analytic wire-claim path still existed beside it, and the claim
// path reproduced every digest. The rigs cover the seams that path
// had to respect: ramp-up, short messages, duplex bulk, multiple
// concurrent flows, mid-stream faults (corruption, stuck
// descriptors), buffer starvation, reactive echo, and randomized
// traffic under a pinned seed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// goldenSeed pins every randomized mix and fault schedule in this
// file; the goldens hold for this seed only.
const goldenSeed = 0x5EEDED

// wireGolden is one rig's frozen timeline: the SHA-256 of its
// fingerprint and its dispatched kernel events.
type wireGolden struct {
	digest string
	events uint64
}

// checkGolden fails unless the run reproduces its golden.
func checkGolden(t *testing.T, name, fp string, st sim.Stats, want wireGolden) {
	t.Helper()
	sum := sha256.Sum256([]byte(fp))
	if got := hex.EncodeToString(sum[:]); got != want.digest || st.Events != want.events {
		t.Fatalf("%s: timeline %s with %d events, golden %s with %d",
			name, got, st.Events, want.digest, want.events)
	}
}

// mixOp is one scripted sender action: wait gap, then send one LSO job
// of size bytes on flow fl.
type mixOp struct {
	node int // 0 = a, 1 = b
	fl   int // flow index within the node
	gap  sim.Time
	size int
}

type mixConfig struct {
	ops       []mixOp
	flows     int // flows per node
	bufs      int // receive buffers posted per node (starvation < ops)
	profile   fault.Profile
	faultSeed uint64
}

// goldenNode wraps the test node with scripted-traffic state.
type goldenNode struct {
	*node
	bufBase mem.Addr
	free    []mem.Addr // repost pool, consumed and refilled in order
	fills   []Filled
	txSeq   []uint32
	lines   *[]string
	label   string
}

func (fn *goldenNode) post(addrs []mem.Addr) {
	if len(addrs) == 0 {
		return
	}
	bds := make([]RecvBD, 0, len(addrs))
	for _, a := range addrs {
		bds = append(bds, RecvBD{Addr: a, Len: 2048})
	}
	if err := fn.recv.Post(bds); err != nil {
		panic(err)
	}
	fn.recv.RingDoorbell()
}

// runMix drives one scripted mix and returns the full host-visible
// fingerprint.
func runMix(mix mixConfig) (string, sim.Stats) {
	env := sim.NewEnv()
	nodes := make([]*goldenNode, 2)
	var lines []string
	for i, name := range []string{"a", "b"} {
		inj := fault.NewInjector(mix.faultSeed, mix.profile)
		n := newFaultyNode(env, name, inj)
		fn := &goldenNode{node: n, lines: &lines, label: name}
		fn.bufBase = n.dram.Alloc(uint64(mix.bufs)*2048, 4096)
		for k := 0; k < mix.bufs; k++ {
			fn.free = append(fn.free, fn.bufBase+mem.Addr(k*2048))
		}
		fn.txSeq = make([]uint32, mix.flows)
		nodes[i] = fn
	}
	Connect(nodes[0].nic, nodes[1].nic)
	for _, fn := range nodes {
		fn.post(fn.free)
		fn.free = fn.free[:0]
		fn := fn
		_, off := fn.mm.MustResolve(fn.cfg.RecvStatus)
		fn.statusRegion().SetWriteHook(func(o uint64, k int) {
			if o != off {
				return
			}
			fn.fills = fn.recv.AppendPoll(fn.fills[:0])
			for _, f := range fn.fills {
				raw := fn.mm.View(f.Addr, int(f.Cpl.HdrLen)+int(f.Cpl.PayLen))
				*fn.lines = append(*fn.lines, fmt.Sprintf(
					"t=%d %s addr=%x idx=%d seq=%d flags=%d hl=%d pl=%d crc=%08x",
					env.Now(), fn.label, uint64(f.Addr), f.Cpl.BDIndex, f.Cpl.Seq,
					f.Cpl.Flags, f.Cpl.HdrLen, f.Cpl.PayLen, crc32.ChecksumIEEE(raw)))
				fn.free = append(fn.free, f.Addr)
			}
			if len(fn.fills) > 0 {
				fn.post(fn.free)
				fn.free = fn.free[:0]
			}
		})
	}
	// One sender proc per node replays its schedule in order.
	for i := range nodes {
		i := i
		fn := nodes[i]
		env.Spawn(fn.label+"-driver", func(p *sim.Proc) {
			for _, op := range mix.ops {
				if op.node != i {
					continue
				}
				if op.gap > 0 {
					p.Sleep(op.gap)
				}
				fl := mixFlow(i, op.fl)
				payload := make([]byte, op.size)
				for j := range payload {
					payload[j] = byte(j ^ op.size ^ int(fn.txSeq[op.fl]))
				}
				sendJob(fn.node, fl, fn.txSeq[op.fl], payload, op.size > int(ether.MSS))
				fn.txSeq[op.fl] += uint32(op.size)
			}
		})
	}
	env.Run(-1)
	return timelineFingerprint(env, lines, nodes), env.Stats()
}

// timelineFingerprint joins the delivery lines with both NICs' final
// counters and the end instant.
func timelineFingerprint(env *sim.Env, lines []string, nodes []*goldenNode) string {
	var sb strings.Builder
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	for _, fn := range nodes {
		tx, rx, txp, rxp, drops, errs := fn.nic.Stats()
		replays, refetches := fn.nic.RecoveryStats()
		fmt.Fprintf(&sb, "%s tx=%d rx=%d txp=%d rxp=%d drops=%d errs=%d replays=%d refetches=%d\n",
			fn.label, tx, rx, txp, rxp, drops, errs, replays, refetches)
	}
	fmt.Fprintf(&sb, "end=%d\n", env.Now())
	return sb.String()
}

// statusRegion resolves the node's status region for hook installation.
func (fn *goldenNode) statusRegion() *mem.Region {
	r, _ := fn.mm.MustResolve(fn.cfg.RecvStatus)
	return r
}

// newFaultyNode is newNode with a custom fault injector on the NIC
// (the PCIe fabric keeps the default none profile). The fabric is the
// event-driven one every workload runs: scripted senders overlap
// transmit gathers with receive payload DMAs.
func newFaultyNode(env *sim.Env, name string, inj *fault.Injector) *node {
	mm := mem.NewMap()
	fab := pcie.NewFabric(env, mm, pcie.DefaultParams())
	hostPort := fab.AddPort(name + "-root")
	dram := mm.AddRegion(name+"-dram", mem.HostDRAM, 64<<20, true)
	fab.Attach(hostPort, dram)
	params := DefaultParams()
	params.Faults = inj
	n := NewNIC(env, fab, name+"-nic", params)
	sendRing := mm.AddRegion(name+"-sring", mem.HostDRAM, 1024*SendBDSize, true)
	recvRing := mm.AddRegion(name+"-rring", mem.HostDRAM, 1024*RecvBDSize, true)
	recvCpl := mm.AddRegion(name+"-rcpl", mem.HostDRAM, 1024*RecvCplSize, true)
	status := mm.AddRegion(name+"-status", mem.HostDRAM, 64, true)
	for _, r := range []*mem.Region{sendRing, recvRing, recvCpl, status} {
		fab.Attach(hostPort, r)
	}
	cfg := QueueConfig{
		QID: 0, SendRing: sendRing, SendEntries: 1024,
		SendStatus: status.Base,
		RecvRing:   recvRing, RecvEntries: 1024,
		RecvCpl: recvCpl, RecvStatus: status.Base + 8,
		MSIVector: -1,
	}
	n.ConfigureQueue(cfg)
	return &node{
		mm: mm, fab: fab, hostPort: hostPort, dram: dram, nic: n, cfg: cfg,
		send: NewSendRing(fab, n, cfg),
		recv: NewRecvRing(fab, n, cfg),
	}
}

// mixFlow returns flow fl of node i's transmit direction.
func mixFlow(i, fl int) ether.Flow {
	f := ether.Flow{
		SrcMAC: ether.MAC{2, 0, 0, 0, 0, byte(1 + i)},
		DstMAC: ether.MAC{2, 0, 0, 0, 0, byte(2 - i)},
		SrcIP:  ether.IP{10, 0, 0, byte(1 + i)}, DstIP: ether.IP{10, 0, 0, byte(2 - i)},
		SrcPort: uint16(5000 + 13*fl), DstPort: 80,
	}
	if i == 1 {
		f.SrcPort, f.DstPort = uint16(7000+17*fl), 81
	}
	return f
}

// checkMix runs the mix and fails unless it reproduces its golden.
func checkMix(t *testing.T, name string, mix mixConfig, want wireGolden) string {
	t.Helper()
	fp, st := runMix(mix)
	checkGolden(t, name, fp, st, want)
	return fp
}

func bulkMix(ops []mixOp, flows, bufs int) mixConfig {
	return mixConfig{ops: ops, flows: flows, bufs: bufs, profile: fault.None(), faultSeed: 1}
}

func TestWireGoldenBulkDuplex(t *testing.T) {
	// Steady duplex bulk: both nodes stream full-size LSO jobs with no
	// gaps.
	var ops []mixOp
	for k := 0; k < 12; k++ {
		ops = append(ops, mixOp{node: 0, fl: 0, size: 64 << 10})
		ops = append(ops, mixOp{node: 1, fl: 0, size: 48 << 10})
	}
	checkMix(t, "bulk-duplex", bulkMix(ops, 1, 256), wireGolden{"2393243a720bef5e70df651f686cf73ec5075452aea223fc9b6e4cde26d32081", 13958})
}

func TestWireGoldenShortMessages(t *testing.T) {
	// Short messages, one frame each, with gaps.
	var ops []mixOp
	for k := 0; k < 30; k++ {
		ops = append(ops, mixOp{node: k % 2, fl: 0, size: 64 + 32*k, gap: sim.Time(k%3) * 5 * sim.Microsecond})
	}
	checkMix(t, "short", bulkMix(ops, 1, 128), wireGolden{"773a80c1de751afe621cd0d0e2a5500444b7cf7e3425c197ed8f05a4fb56de98", 1427})
}

func TestWireGoldenMultiFlow(t *testing.T) {
	// Concurrent flows per direction with mixed sizes, interleaved on
	// one wire.
	var ops []mixOp
	for k := 0; k < 10; k++ {
		ops = append(ops, mixOp{node: 0, fl: k % 3, size: 32 << 10})
		ops = append(ops, mixOp{node: 1, fl: k % 2, size: 200, gap: sim.Time(k%2) * 2 * sim.Microsecond})
		ops = append(ops, mixOp{node: 0, fl: (k + 1) % 3, size: 1460})
	}
	checkMix(t, "multi-flow", bulkMix(ops, 3, 256), wireGolden{"fc5e71256d3ca92f59967b9c2cfd8a0e48964d0f6c3436989699a6920d733a38", 4299})
}

func TestWireGoldenStarvation(t *testing.T) {
	// Fewer receive buffers than in-flight frames: the stream starves,
	// recovers, and retires in order.
	var ops []mixOp
	for k := 0; k < 8; k++ {
		ops = append(ops, mixOp{node: 0, fl: 0, size: 64 << 10})
	}
	checkMix(t, "starve", bulkMix(ops, 1, 24), wireGolden{"36da88978b6325ebe4d461b7ebdcd57334ee62fca3aba0b4d31b3fdf154af335", 5383})
}

func faultMix(ops []mixOp, flows, bufs int, rules map[fault.Site]fault.Rule) mixConfig {
	return mixConfig{ops: ops, flows: flows, bufs: bufs,
		profile: fault.Profile{Name: "mix", Rules: rules}, faultSeed: goldenSeed}
}

func TestWireGoldenCorruptionBurst(t *testing.T) {
	// Deterministic corruption of the first frames, replayed by the
	// link layer, then trailing jobs behind a drain gap.
	var ops []mixOp
	for k := 0; k < 10; k++ {
		ops = append(ops, mixOp{node: 0, fl: 0, size: 64 << 10})
	}
	for k := 0; k < 3; k++ {
		ops = append(ops, mixOp{node: 0, fl: 0, size: 64 << 10, gap: 500 * sim.Microsecond})
	}
	checkMix(t, "corrupt-first", faultMix(ops, 1, 256,
		map[fault.Site]fault.Rule{fault.NICCorruptFrame: {Prob: 1, Limit: 5}}), wireGolden{"d102a4449fbb3e3f5cb7f84652ed71d941bf02b729065d486a318d07b89a13e4", 8636})
}

// TestWireGoldenFaultSplitBoundary pins a mid-stream fault limit: with
// NICCorruptFrame limited to 5 hits, exactly 5 frames are replayed and
// the tail after the limit goes out clean.
func TestWireGoldenFaultSplitBoundary(t *testing.T) {
	var ops []mixOp
	for k := 0; k < 6; k++ {
		ops = append(ops, mixOp{node: 0, fl: 0, size: 64 << 10})
	}
	for k := 0; k < 3; k++ {
		ops = append(ops, mixOp{node: 0, fl: 0, size: 64 << 10, gap: 500 * sim.Microsecond})
	}
	fp := checkMix(t, "split-boundary", faultMix(ops, 1, 256,
		map[fault.Site]fault.Rule{fault.NICCorruptFrame: {Prob: 1, Limit: 5}}), wireGolden{"89a49713a3910d7d0d6d17a33a23121c45505f4a25de7f5c44e40bddaecb81d7", 6022})
	if !strings.Contains(fp, "replays=5") {
		t.Fatalf("run did not replay exactly the limited hits:\n%s", fp)
	}
}

func TestWireGoldenRandomCorruption(t *testing.T) {
	// Probabilistic corruption keeps the site armed for the whole run,
	// so the RNG draw sequence fixes every replay instant.
	var ops []mixOp
	for k := 0; k < 8; k++ {
		ops = append(ops, mixOp{node: k % 2, fl: 0, size: 32 << 10})
	}
	checkMix(t, "corrupt-rand", faultMix(ops, 1, 256,
		map[fault.Site]fault.Rule{fault.NICCorruptFrame: {Prob: 0.1}}), wireGolden{"3ebe0f1de032f1f2317e5596045436cfc1afec5be935d596f23380488b069f5a", 3130})
}

func TestWireGoldenStuckBDs(t *testing.T) {
	// Stuck descriptor fetches: each send-BD fetch draws the site
	// after the fetch, and recovery stalls the send path.
	var ops []mixOp
	for k := 0; k < 10; k++ {
		ops = append(ops, mixOp{node: 0, fl: 0, size: 64 << 10})
		ops = append(ops, mixOp{node: 1, fl: 0, size: 16 << 10})
	}
	checkMix(t, "stuck-bd", faultMix(ops, 1, 256,
		map[fault.Site]fault.Rule{fault.NICStuckBD: {Prob: 0.2}}), wireGolden{"4e7b15013bf795b1dd319296c4fda814ca307e9fb9de1e0fb05bc6658dc71ef7", 8588})
}

// echoConfig scripts a reactive request/response rig: node a sends a
// request, node b answers each fully received request with a reply,
// and a issues the next request only after the full reply lands — the
// traffic shape of the request/response workloads, on the same plain
// fabric they run.
type echoConfig struct {
	rounds    int
	reqSize   int
	repSize   int
	profile   fault.Profile
	faultSeed uint64
}

// runEcho drives one reactive echo exchange and returns the full
// host-visible fingerprint.
func runEcho(cfg echoConfig) (string, sim.Stats) {
	env := sim.NewEnv()
	nodes := make([]*goldenNode, 2)
	var lines []string
	for i, name := range []string{"a", "b"} {
		inj := fault.NewInjector(cfg.faultSeed, cfg.profile)
		n := newFaultyNode(env, name, inj)
		fn := &goldenNode{node: n, lines: &lines, label: name}
		fn.bufBase = n.dram.Alloc(64*2048, 4096)
		for k := 0; k < 64; k++ {
			fn.free = append(fn.free, fn.bufBase+mem.Addr(k*2048))
		}
		fn.txSeq = make([]uint32, 1)
		nodes[i] = fn
	}
	Connect(nodes[0].nic, nodes[1].nic)
	send := func(i, size int) {
		fn := nodes[i]
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(j ^ size ^ int(fn.txSeq[0]))
		}
		sendJob(fn.node, mixFlow(i, 0), fn.txSeq[0], payload, size > int(ether.MSS))
		fn.txSeq[0] += uint32(size)
	}
	rounds := 0
	var gotA, gotB int // payload bytes fully delivered to each node
	for i := range nodes {
		i := i
		fn := nodes[i]
		fn.post(fn.free)
		fn.free = fn.free[:0]
		_, off := fn.mm.MustResolve(fn.cfg.RecvStatus)
		fn.statusRegion().SetWriteHook(func(o uint64, k int) {
			if o != off {
				return
			}
			fn.fills = fn.recv.AppendPoll(fn.fills[:0])
			for _, f := range fn.fills {
				raw := fn.mm.View(f.Addr, int(f.Cpl.HdrLen)+int(f.Cpl.PayLen))
				*fn.lines = append(*fn.lines, fmt.Sprintf(
					"t=%d %s addr=%x idx=%d seq=%d flags=%d hl=%d pl=%d crc=%08x",
					env.Now(), fn.label, uint64(f.Addr), f.Cpl.BDIndex, f.Cpl.Seq,
					f.Cpl.Flags, f.Cpl.HdrLen, f.Cpl.PayLen, crc32.ChecksumIEEE(raw)))
				fn.free = append(fn.free, f.Addr)
				if i == 1 {
					gotB += int(f.Cpl.PayLen)
				} else {
					gotA += int(f.Cpl.PayLen)
				}
			}
			if len(fn.fills) > 0 {
				fn.post(fn.free)
				fn.free = fn.free[:0]
			}
			// Completion-driven sends: b answers each fully received
			// request; a pipelines the next request after the full reply.
			if i == 1 {
				for gotB >= cfg.reqSize*(rounds+1) && rounds < cfg.rounds {
					rounds++
					send(1, cfg.repSize)
				}
			} else if gotA >= cfg.repSize*rounds && rounds < cfg.rounds && gotA > 0 {
				send(0, cfg.reqSize)
			}
		})
	}
	env.Spawn("kickoff", func(p *sim.Proc) { send(0, cfg.reqSize) })
	env.Run(-1)
	return timelineFingerprint(env, lines, nodes), env.Stats()
}

// checkEcho runs the echo rig and fails unless it reproduces its
// golden.
func checkEcho(t *testing.T, name string, cfg echoConfig, want wireGolden) {
	t.Helper()
	fp, st := runEcho(cfg)
	checkGolden(t, name, fp, st, want)
}

func TestWireGoldenReactiveEcho(t *testing.T) {
	// Single-frame request/response.
	checkEcho(t, "echo", echoConfig{
		rounds: 40, reqSize: 1024, repSize: 1024,
		profile: fault.None(), faultSeed: 1,
	}, wireGolden{"3336ad14e5be699b9ced3ee38f12bc301d28957528d5d5d3df4020e3e1dcc812", 3889})
}

func TestWireGoldenReactiveBulkEcho(t *testing.T) {
	// Small request, bulk LSO reply: each reply is a multi-frame LSO
	// run.
	checkEcho(t, "bulk-echo", echoConfig{
		rounds: 12, reqSize: 512, repSize: 32 << 10,
		profile: fault.None(), faultSeed: 1,
	}, wireGolden{"cbf62521e8d61c863fef76b5d7fa15f343cdb557ef90899c9e44b7bd10d7297a", 4955})
}

func TestWireGoldenReactiveFaultyEcho(t *testing.T) {
	// Faults on the reactive rig: corruption replays reply frames;
	// stuck descriptor fetches stall the send path.
	checkEcho(t, "echo-corrupt", echoConfig{
		rounds: 20, reqSize: 1024, repSize: 1024,
		profile: fault.Profile{Name: "ec", Rules: map[fault.Site]fault.Rule{
			fault.NICCorruptFrame: {Prob: 0.2},
		}},
		faultSeed: goldenSeed,
	}, wireGolden{"6e1095342dc4665ffabe6685d61f5da93706d688fd912d68e5d4aa9b1d0cad8e", 1987})
	checkEcho(t, "echo-stuck", echoConfig{
		rounds: 12, reqSize: 512, repSize: 32 << 10,
		profile: fault.Profile{Name: "es", Rules: map[fault.Site]fault.Rule{
			fault.NICStuckBD: {Prob: 0.2},
		}},
		faultSeed: goldenSeed,
	}, wireGolden{"0237893f78aa39c74852dfa88b41190aecba45e24268bbae3478ad141e777b46", 4997})
}

func TestWireGoldenRandomMixes(t *testing.T) {
	// Randomized traffic: sizes, gaps, flows, and fault schedules all
	// drawn from goldenSeed-derived streams.
	goldens := []wireGolden{
		{"e46aa1fa8a399d75bd177b85b8769820124c9b09001cb001f054817d9fdf8095", 5803},
		{"f57a7c0ed38d02fad44c3e81477827ca3391e69ed080ed477ec37eb58b6f3c9f", 8081},
		{"ce04e85c6938cdbee14f8b37b7559531c7555d0ffd0fb2daf5c2c4e84e2377f1", 5845},
		{"341564d0380c9acca256f3c82affe5e663b7a8828134ff86422dc1baf427d782", 3605},
		{"48839c10f41112d89d7d772d035e6469d75b56079b565ac2d60664a21572d885", 6264},
		{"a77584e1486a2a3e0627eb35dc6a948f8682d10dbe4556bc156632b4198a2ea5", 22966},
	}
	for trial, want := range goldens {
		rng := rand.New(rand.NewSource(goldenSeed + int64(trial)))
		var ops []mixOp
		nops := 20 + rng.Intn(20)
		for k := 0; k < nops; k++ {
			op := mixOp{
				node: rng.Intn(2),
				fl:   rng.Intn(2),
				gap:  sim.Time(rng.Intn(4)) * sim.Microsecond,
			}
			switch rng.Intn(4) {
			case 0:
				op.size = 1 + rng.Intn(255) // short
			case 1:
				op.size = 256 + rng.Intn(1461) // one full-ish frame
			default:
				op.size = 4 << (10 + rng.Intn(5)) // bulk LSO 4K..64K
			}
			ops = append(ops, op)
		}
		rules := map[fault.Site]fault.Rule{}
		if trial%2 == 1 {
			rules[fault.NICCorruptFrame] = fault.Rule{Prob: 1, Limit: rng.Intn(4)}
			rules[fault.NICStuckBD] = fault.Rule{Prob: 0.1}
		}
		mix := faultMix(ops, 2, 256, rules)
		mix.faultSeed = uint64(goldenSeed + int64(trial))
		checkMix(t, fmt.Sprintf("rand-%d", trial), mix, want)
	}
}

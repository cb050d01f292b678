package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/nvme"
	"dcsctrl/internal/sim"
)

// regionNamed returns the node's memory region with the given name.
func regionNamed(t *testing.T, n *Node, name string) *mem.Region {
	t.Helper()
	for _, r := range n.MM.Regions() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("%s has no region %q", n.Name, name)
	return nil
}

// TestRecvBuffersRecycled receives a transfer of more than four
// rings' worth of frames on a host-terminated connection and checks
// that the receive path runs on its setup stock: every buffer posted
// to the ring is a stock buffer, the stock packs two buffers to a
// 4 KB page, no staging buffer can land on the stock, and no staging
// buffer stays live once the bytes are received.
func TestRecvBuffersRecycled(t *testing.T) {
	env := sim.NewEnv()
	cl := NewCluster(env, SWOpt, DefaultParams())
	srv := cl.Server
	rring := regionNamed(t, srv, srv.Name+"-h-nic0-rring")

	// The setup stock is what the ring holds before any traffic.
	stock := map[mem.Addr]bool{}
	perPage := map[mem.Addr]int{}
	var stockEnd mem.Addr
	for slot := 0; slot < hostRxBufs; slot++ {
		bd, err := nic.DecodeRecvBD(rring.Bytes(uint64(slot*nic.RecvBDSize), nic.RecvBDSize))
		if err != nil {
			t.Fatal(err)
		}
		if bd.Len != hostRxBufLen {
			t.Fatalf("stock buffer %d is %d bytes, want %d", slot, bd.Len, hostRxBufLen)
		}
		if !srv.arena.Contains(bd.Addr) {
			t.Fatalf("stock buffer %#x lies outside the arena", bd.Addr)
		}
		stockEnd = max(stockEnd, bd.Addr+hostRxBufLen)
		stock[bd.Addr] = true
		perPage[bd.Addr&^4095]++
	}
	if len(stock) != hostRxBufs {
		t.Fatalf("stock has %d distinct buffers, want %d", len(stock), hostRxBufs)
	}
	if want := (hostRxBufs + 1) / 2; len(perPage) != want {
		t.Fatalf("stock spans %d pages, want %d (two buffers per 4 KB page)", len(perPage), want)
	}
	for page, k := range perPage {
		if k > 2 {
			t.Fatalf("page %#x holds %d buffers", page, k)
		}
	}
	// First fit hands out the lowest free page, so the first staging
	// buffer bounds every later one from below.
	lowest := srv.allocHost(1)
	if lowest < stockEnd {
		t.Fatalf("lowest staging buffer %#x lies below the stock's end %#x", lowest, stockEnd)
	}
	srv.freeHost(lowest, 1)

	posted, foreign := 0, 0
	rring.SetWriteHook(func(off uint64, n int) {
		for o := off; o < off+uint64(n); o += nic.RecvBDSize {
			bd, err := nic.DecodeRecvBD(rring.Bytes(o, nic.RecvBDSize))
			if err != nil || !stock[bd.Addr] {
				foreign++
			}
			posted++
		}
	})

	const nbytes = 6 << 20 // > 4 × 1023 frames of one MSS
	conn := cl.OpenConn(false)
	payload := pattern(nbytes)
	var got []byte
	env.Spawn("client-app", func(p *sim.Proc) { cl.ClientSend(p, conn, payload) })
	env.Spawn("server-app", func(p *sim.Proc) { got = cl.ServerRecv(p, nil, conn, nbytes) })
	env.Run(-1)

	if !bytes.Equal(got, payload) {
		t.Fatal("received bytes differ from the payload")
	}
	if posted < 4*hostRxBufs {
		t.Fatalf("only %d buffers reposted; the transfer must cycle the ring at least four times", posted)
	}
	if foreign != 0 {
		t.Fatalf("%d of %d reposted buffers are not from the setup stock", foreign, posted)
	}
	for _, n := range []*Node{cl.Client, srv} {
		if spans, bytes := n.StagingLive(); spans != 0 {
			t.Fatalf("%s holds %d staging buffers (%d bytes) after the transfer", n.Name, spans, bytes)
		}
	}
}

// TestSnapshotRefusesLiveStaging: a node that holds a staging buffer
// is mid-transfer, so a snapshot refuses it; the allocator's state is
// never saved, because a quiescent node holds none.
func TestSnapshotRefusesLiveStaging(t *testing.T) {
	env := sim.NewEnv()
	cl := NewCluster(env, SWOpt, DefaultParams())
	env.Run(-1)
	buf := cl.Client.allocHost(8192)
	if _, err := cl.Snapshot(); err == nil || !strings.Contains(err.Error(), "1 staging buffers (8192 bytes) outstanding") {
		t.Fatalf("snapshot with a live staging buffer: %v", err)
	}
	cl.Client.freeHost(buf, 8192)
	if _, err := cl.Snapshot(); err != nil {
		t.Fatalf("snapshot after the release: %v", err)
	}
}

// TestHostNVMePRPListPageOnlyWhenNeeded: the host driver takes a
// staging page for a command's PRP list only when the command needs a
// list, and returns it once the command succeeds.
func TestHostNVMePRPListPageOnlyWhenNeeded(t *testing.T) {
	for _, tc := range []struct{ blocks, listPages int }{{1, 0}, {2, 0}, {3, 1}} {
		env := sim.NewEnv()
		n := NewNode(env, "n", SWOpt, DefaultParams())
		content := pattern(tc.blocks * nvme.BlockSize)
		f, err := n.StageFile("obj", content)
		if err != nil {
			t.Fatal(err)
		}
		size := uint64(len(content))
		buf := n.allocHost(size)
		inFlight := -1
		env.Spawn("io", func(p *sim.Proc) {
			sig := sim.NewSignal(env)
			n.submitHostNVMe(p, n.DevOf(f), false, f.LBAs()[0], buf, tc.blocks, sig)
			spans, _ := n.StagingLive()
			inFlight = spans - 1 // less the data buffer
			sig.Wait(p)
		})
		env.Run(-1)
		if inFlight != tc.listPages {
			t.Errorf("%d-block command held %d PRP-list pages in flight, want %d", tc.blocks, inFlight, tc.listPages)
		}
		if !bytes.Equal(n.MM.Read(buf, len(content)), content) {
			t.Errorf("%d-block command read the wrong bytes", tc.blocks)
		}
		n.freeHost(buf, size)
		if spans, _ := n.StagingLive(); spans != 0 {
			t.Errorf("%d-block command left %d staging spans after it completed", tc.blocks, spans)
		}
	}
}

// TestStagingExhaustionFailsLoudly keeps two staging buffers live
// whose sizes together exceed the arena. The second must land apart
// from the first or panic naming the node, the region, the request
// and the live bytes; handing out the first buffer's bytes again would
// corrupt an in-flight transfer silently.
func TestStagingExhaustionFailsLoudly(t *testing.T) {
	env := sim.NewEnv()
	cl := NewCluster(env, SWOpt, DefaultParams())
	srv := cl.Server
	size := srv.arena.Size / 4 * 3
	a := srv.allocHost(size)
	var b mem.Addr
	msg := func() (msg any) {
		defer func() { msg = recover() }()
		b = srv.allocHost(size)
		return nil
	}()
	if msg == nil {
		if b < a+mem.Addr(size) && a < b+mem.Addr(size) {
			t.Fatalf("second buffer [%#x, +%d) overlaps the live first one at %#x", b, size, a)
		}
		return
	}
	s := fmt.Sprint(msg)
	for _, want := range []string{srv.Name, srv.arena.Name, fmt.Sprintf("%d bytes requested", size), fmt.Sprintf("%d bytes live", size)} {
		if !strings.Contains(s, want) {
			t.Fatalf("exhaustion panic %q does not name %q", s, want)
		}
	}
}

// TestTakeStreamDrainingHandsOff checks that a take draining the
// stream from offset 0 returns the bytes with no spare capacity, and
// that later pushes never write into the returned slice.
func TestTakeStreamDrainingHandsOff(t *testing.T) {
	c := &hostConn{}
	c.reserveStream(16) // a reservation larger than this take
	c.pushStream([]byte("abcdefgh"))
	out := c.takeStream(8)
	if string(out) != "abcdefgh" {
		t.Fatalf("take = %q", out)
	}
	if cap(out) != 8 {
		t.Fatalf("handed-off slice has capacity %d, want 8", cap(out))
	}
	if c.streamLen() != 0 {
		t.Fatalf("stream holds %d bytes after a draining take", c.streamLen())
	}
	c.pushStream([]byte("ZYXWVUTSRQPONMLK"))
	if string(out) != "abcdefgh" {
		t.Fatalf("a later push rewrote the taken bytes: %q", out)
	}
	if got := c.takeStream(16); string(got) != "ZYXWVUTSRQPONMLK" {
		t.Fatalf("second take = %q", got)
	}
}

// TestTakeStreamPartialCopies checks that a take leaving bytes behind
// copies, and that the remainder survives the compaction a later
// reservation triggers.
func TestTakeStreamPartialCopies(t *testing.T) {
	c := &hostConn{}
	c.pushStream([]byte("0123456789"))
	head := c.takeStream(4)
	if string(head) != "0123" {
		t.Fatalf("take = %q", head)
	}
	head[0] = 'X'
	if c.stream[0] == 'X' {
		t.Fatal("partial take aliases the stream buffer")
	}
	// Growing past the capacity compacts the consumed prefix away.
	c.reserveStream(cap(c.stream))
	if c.rd != 0 {
		t.Fatalf("reservation did not compact: rd = %d", c.rd)
	}
	c.pushStream([]byte("abc"))
	if got := c.takeStream(c.streamLen()); string(got) != "456789abc" {
		t.Fatalf("remaining stream = %q, want %q", got, "456789abc")
	}
	if string(head) != "X123" {
		t.Fatalf("the copied head changed: %q", head)
	}
}

// TestStreamInterleavedPushTake drives one connection's stream with
// random delivered runs, waiting readers and takes, and checks that the
// takes reproduce the pushed byte stream and that no taken slice is
// rewritten by anything that happens after it was returned.
func TestStreamInterleavedPushTake(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := pattern(1 << 20)
	c := &hostConn{}
	pushed, taken := 0, 0
	var outs [][]byte
	var offs []int
	for pushed < len(src) {
		switch rng.Intn(4) {
		case 0, 1: // a delivered frame run
			k := min(rng.Intn(3*1460)+1, len(src)-pushed)
			c.reserveRun(k)
			c.pushStream(src[pushed : pushed+k])
			pushed += k
		case 2: // a reader starts to wait for its message
			c.want = rng.Intn(8192)
		case 3:
			if c.streamLen() == 0 {
				continue
			}
			want := c.streamLen()
			if rng.Intn(2) == 0 {
				want = rng.Intn(want) + 1
			}
			c.want = 0
			outs = append(outs, c.takeStream(want))
			offs = append(offs, taken)
			taken += want
		}
	}
	outs = append(outs, c.takeStream(c.streamLen()))
	offs = append(offs, taken)
	for i, out := range outs {
		if !bytes.Equal(out, src[offs[i]:offs[i]+len(out)]) {
			t.Fatalf("take %d (%d bytes at offset %d) differs from the pushed stream", i, len(out), offs[i])
		}
	}
	if end := offs[len(offs)-1] + len(outs[len(outs)-1]); end != len(src) {
		t.Fatalf("takes cover %d bytes, pushed %d", end, len(src))
	}
}

// TestReaderSizesStreamOnArrival checks that a reader that has
// received nothing has allocated nothing, and that its message's first
// run sizes the stream once, to the message, with later runs landing
// in that capacity.
func TestReaderSizesStreamOnArrival(t *testing.T) {
	const want = 64 << 10
	env := sim.NewEnv()
	cl := NewCluster(env, SWOpt, DefaultParams())
	conn := cl.OpenConn(false)
	var got []byte
	env.Spawn("client-app", func(p *sim.Proc) { got = cl.ClientRecv(p, conn, want) })
	env.Run(-1)
	c := cl.Client.conns[conn.ID]
	if c.want != want || cap(c.stream) != 0 {
		t.Fatalf("waiting reader: want %d, stream capacity %d; expected want %d and nothing allocated", c.want, cap(c.stream), want)
	}
	payload := pattern(want)
	env.Spawn("server-app", func(p *sim.Proc) { cl.ServerSend(p, nil, conn, payload) })
	env.Run(-1)
	if !bytes.Equal(got, payload) || c.want != 0 {
		t.Fatalf("received %d bytes (equal %v), want left at %d", len(got), bytes.Equal(got, payload), c.want)
	}

	s := &hostConn{want: 10000}
	s.reserveRun(1460)
	if cap(s.stream) != 10000 {
		t.Fatalf("first run sized the stream to %d, want the reader's 10000", cap(s.stream))
	}
	first := &s.stream[:1][0]
	for k := 0; k < 6; k++ {
		s.reserveRun(1460)
		s.pushStream(pattern(1460))
	}
	if cap(s.stream) != 10000 || &s.stream[0] != first {
		t.Fatalf("later runs regrew the stream to %d", cap(s.stream))
	}
}

// TestClientRecvAllocBudget bounds the heap a fresh connection
// allocates to receive one 64 KB message, the rack's pattern (every
// flow is a new connection on a node whose NIC has already carried
// traffic): the message's first run sizes the stream once, for its
// waiting reader, and the draining take hands it over, so the whole
// transfer allocates little more than the message itself.
func TestClientRecvAllocBudget(t *testing.T) {
	const want = 64 << 10
	env := sim.NewEnv()
	cl := NewCluster(env, SWOpt, DefaultParams())
	payload := pattern(want)
	transfer := func() []byte {
		conn := cl.OpenConn(false)
		var got []byte
		env.Spawn("server-app", func(p *sim.Proc) { cl.ServerSend(p, nil, conn, payload) })
		env.Spawn("client-app", func(p *sim.Proc) { got = cl.ClientRecv(p, conn, want) })
		env.Run(-1)
		return got
	}
	transfer() // warm the NICs' shared frame pool
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	got := transfer()
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc - before
	if !bytes.Equal(got, payload) {
		t.Fatal("received bytes differ from the payload")
	}
	if limit := uint64(want) * 5 / 4; alloc > limit {
		t.Fatalf("receiving %d bytes allocated %d bytes (%.2fx), budget 1.25x", want, alloc, float64(alloc)/want)
	}
	t.Logf("receiving %d bytes allocated %d bytes (%.2fx)", want, alloc, float64(alloc)/want)
}

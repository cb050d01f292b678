package main

import (
	"container/heap"
	"crypto/md5"
	"encoding/json"
	"fmt"
	"os"
	"syscall"
	"time"
)

// On a shared host (a few vCPUs of a larger machine) the speed of the
// same code drifts by up to ±20% over minutes, so a run measured in a
// slow minute reads slow. Before every untraced pass, a run therefore
// times a fixed reference kernel in a fresh process, and scales its
// end-to-end times by the kernel's nominal time over its median time
// in the run. The kernel mixes the kinds of work a simulated cell
// does — an event heap, closures, map churn, 4 KB copies, MD5 and
// fresh pages — so it slows down with the passes, but shares no code
// with the simulator: a change to the simulator moves the scaled
// times as it moves the raw ones.

// refSeconds and refCPUSeconds are the reference kernel's median wall
// and CPU times on the host the bounds in BENCHMARK.json were set on
// (2 vCPUs of a Xeon VM). A scaled wall time is the raw one multiplied
// by refSeconds over the kernel's median wall time in the run; a scaled
// CPU time likewise with the CPU times. Wall and CPU time are scaled
// apart because a host that takes the vCPU away slows wall time only,
// while one that shares the core slows both.
const (
	refSeconds    = 0.6
	refCPUSeconds = 0.6
)

// Reference kernel size: nodes × refBlocks × 64 KB of memory (256 MB),
// refEvents events.
const (
	refNodes  = 16
	refBlocks = 256
	refEvents = 100_000
)

type refEvent struct {
	at, seq int64
	node    *refNode
	fn      func(*refEvent)
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type refNode struct {
	id    int
	mem   [][]byte
	conns map[int]*refConn
	sum   [md5.Size]byte
}

type refConn struct {
	buf []byte
}

// refKernel runs the reference kernel: nodes exchange 4 KB blocks over
// connections that open and close, each exchange one heap event.
func refKernel() {
	nodes := make([]*refNode, refNodes)
	for i := range nodes {
		nodes[i] = &refNode{id: i, conns: map[int]*refConn{}}
		for j := 0; j < refBlocks; j++ {
			nodes[i].mem = append(nodes[i].mem, make([]byte, 64<<10))
		}
	}
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	var q refQueue
	var seq, now int64
	var step func(e *refEvent)
	step = func(e *refEvent) {
		n := e.node
		dst := nodes[rnd()%refNodes]
		c, ok := n.conns[dst.id]
		if !ok {
			c = &refConn{}
			n.conns[dst.id] = c
		}
		src := n.mem[rnd()%refBlocks]
		off := int(rnd() % uint64(len(src)-4096))
		c.buf = append(c.buf[:0], src[off:off+4096]...)
		copy(dst.mem[rnd()%refBlocks][off:], c.buf)
		if rnd()%8 == 0 {
			dst.sum = md5.Sum(c.buf)
		}
		if rnd()%16 == 0 {
			delete(n.conns, dst.id)
		}
		seq++
		heap.Push(&q, &refEvent{at: now + int64(rnd()%1000), seq: seq, node: dst, fn: step})
	}
	for i := 0; i < 256; i++ {
		seq++
		heap.Push(&q, &refEvent{at: int64(i), seq: seq, node: nodes[i%refNodes], fn: step})
	}
	for i := 0; i < refEvents; i++ {
		e := heap.Pop(&q).(*refEvent)
		now = e.at
		e.fn(e)
	}
}

// refTime is one timing of the reference kernel.
type refTime struct {
	Seconds    float64 `json:"seconds"`
	CPUSeconds float64 `json:"cpu_seconds"`
}

// calibrateMain times the reference kernel in this process and prints
// its refTime.
func calibrateMain() int {
	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: getrusage: %v\n", err)
		return 1
	}
	start := time.Now()
	refKernel()
	t := refTime{Seconds: time.Since(start).Seconds()}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: getrusage: %v\n", err)
		return 1
	}
	t.CPUSeconds = float64(ru1.Utime.Nano()+ru1.Stime.Nano()-ru0.Utime.Nano()-ru0.Stime.Nano()) / 1e9
	if err := json.NewEncoder(os.Stdout).Encode(t); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

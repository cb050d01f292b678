package core

import (
	"fmt"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// Cluster is the paper's two-node setup: the server under test plus a
// client load generator, NICs connected back to back. The client is
// always a plain optimized-software host — its CPU is not what the
// experiments measure.
type Cluster struct {
	Env    *sim.Env
	Server *Node
	Client *Node

	nextConn uint64
	ports    PortSpace // (server, client) port pairs; see ports.go
}

// serverIP and clientIP address the two nodes.
var (
	serverIP  = ether.IP{10, 0, 0, 1}
	clientIP  = ether.IP{10, 0, 0, 2}
	serverMAC = ether.MAC{0x02, 0, 0, 0, 0, 1}
	clientMAC = ether.MAC{0x02, 0, 0, 0, 0, 2}
)

// NewCluster builds a server of the given configuration and a plain
// optimized-software client, and wires their NICs together.
func NewCluster(env *sim.Env, kind Config, params Params) *Cluster {
	return NewClusterWithClient(env, kind, SWOpt, params)
}

// NewClusterWithClient builds both nodes with explicit configurations
// (the HDFS balancer experiment measures sender and receiver, so both
// run the design under test).
func NewClusterWithClient(env *sim.Env, serverKind, clientKind Config, params Params) *Cluster {
	c := &Cluster{
		Env:      env,
		Server:   NewNode(env, "server", serverKind, params),
		Client:   NewNode(env, "client", clientKind, params),
		nextConn: 1,
	}
	nic.Connect(c.Server.NIC, c.Client.NIC)
	return c
}

// Conn is one established connection between server and client, as a
// pair of endpoint IDs (the same ID on both nodes).
type Conn struct {
	ID         uint64
	ServerData bool // true when the server endpoint is engine-owned
}

// OpenConn establishes a TCP-lite connection. dataPlane selects
// whether the server endpoint is handed to the HDC Engine (DCS-ctrl
// servers) or terminated by the host stack; the client endpoint is
// always host-terminated.
func (c *Cluster) OpenConn(dataPlane bool) Conn {
	id := c.nextConn
	c.nextConn++
	srcPort, dstPort := c.ports.AllocPair()
	serverFlow := ether.Flow{
		SrcMAC: serverMAC, DstMAC: clientMAC,
		SrcIP: serverIP, DstIP: clientIP,
		SrcPort: srcPort, DstPort: dstPort,
	}
	return connect(c.Server, c.Client, id, serverFlow, dataPlane)
}

// connect wires both endpoints of connection id, server first. With
// dataPlane set, a DCS-ctrl node's end is handed to its HDC Engine
// through the driver; any other end is terminated by the host stack.
// The client's flow is the server's reversed.
func connect(server, client *Node, id uint64, serverFlow ether.Flow, dataPlane bool) Conn {
	open := func(n *Node, flow ether.Flow) bool {
		if dataPlane && n.Kind == DCSCtrl {
			n.Driver.Connect(id, flow, 0, 0)
			return true
		}
		n.OpenHostConn(id, flow)
		return false
	}
	engineOwned := open(server, serverFlow)
	open(client, serverFlow.Reverse())
	return Conn{ID: id, ServerData: engineOwned}
}

// ClientSend transmits payload bytes from the client on a connection
// (load-generation path; client CPU is charged but not reported). The
// NIC DMAs payload in place, so it must not change until the call
// returns.
func (c *Cluster) ClientSend(p *sim.Proc, conn Conn, payload []byte) {
	c.Client.sendPayload(p, trace.NewBreakdown(), conn.ID, payload)
}

// ClientRecv blocks until the client has received n bytes on the
// connection and returns them.
func (c *Cluster) ClientRecv(p *sim.Proc, conn Conn, n int) []byte {
	return c.Client.hostNetRecv(p, trace.NewBreakdown(), conn.ID, n)
}

// ServerRecv receives on a host-terminated server connection (control
// messages; works on every configuration).
func (c *Cluster) ServerRecv(p *sim.Proc, bd *trace.Breakdown, conn Conn, n int) []byte {
	if conn.ServerData {
		panic("core: ServerRecv on an engine-owned connection")
	}
	if bd == nil {
		bd = trace.NewBreakdown()
	}
	return c.Server.hostNetRecv(p, bd, conn.ID, n)
}

// ServerSend transmits from the server host stack on a
// host-terminated connection. The NIC DMAs payload in place, so it
// must not change until the call returns.
func (c *Cluster) ServerSend(p *sim.Proc, bd *trace.Breakdown, conn Conn, payload []byte) {
	if conn.ServerData {
		panic("core: ServerSend on an engine-owned connection")
	}
	if bd == nil {
		bd = trace.NewBreakdown()
	}
	c.Server.sendPayload(p, bd, conn.ID, payload)
}

// Validate checks that the cluster wiring is consistent.
func (c *Cluster) Validate() error {
	if c.Server.Kind == DCSCtrl && c.Server.Engine == nil {
		return fmt.Errorf("core: DCS server without engine")
	}
	return nil
}

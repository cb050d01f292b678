package sim

import "fmt"

// BpsToTime converts a byte count at a bit rate (bits per second) to
// the simulated time the transfer occupies.
func BpsToTime(bytes int, bitsPerSecond float64) Time {
	if bitsPerSecond <= 0 {
		panic(fmt.Sprintf("sim: non-positive bit rate %v", bitsPerSecond))
	}
	return Time(float64(bytes) * 8 / bitsPerSecond * float64(Second))
}

// BandwidthServer models a serializing transmission resource (a link
// direction, a flash channel, a DMA engine): transfers queue FIFO and
// each occupies the server for size/rate plus a fixed per-transfer
// overhead.
type BandwidthServer struct {
	res      *Resource
	bps      float64 // bits per second
	overhead Time    // fixed per-transfer occupancy (arbitration, headers)
	bytes    int64   // total payload bytes moved
	xfers    int64   // total transfers served
}

// NewBandwidthServer returns a server transmitting at bitsPerSecond
// with the given fixed per-transfer overhead.
func NewBandwidthServer(e *Env, name string, bitsPerSecond float64, overhead Time) *BandwidthServer {
	if bitsPerSecond <= 0 {
		panic(fmt.Sprintf("sim: bandwidth server %q rate %v", name, bitsPerSecond))
	}
	return &BandwidthServer{res: NewResource(e, name, 1), bps: bitsPerSecond, overhead: overhead}
}

// Rate returns the configured bit rate.
func (b *BandwidthServer) Rate() float64 { return b.bps }

// A transfer occupies the server for the serialization time of its n
// bytes, as a staged triple: AcquireH, a re-arm for HoldTime(n), and
// CompleteH(n). Every user is a Start/Step machine (pcie.Xfer,
// ndp.Op, the SSD's exec workers), so the triple has no blocking form.

// AcquireH is a transfer's first leg: it reports true once the caller
// holds the server. The caller then re-arms for HoldTime(n) and
// finishes with CompleteH(n).
//
//dcslint:hotpath
func (b *BandwidthServer) AcquireH(h *HandlerCtx) bool {
	return b.res.AcquireH(h)
}

// HoldTime returns the occupancy of an n-byte transfer: the fixed
// per-transfer overhead plus serialization time.
//
//dcslint:hotpath
func (b *BandwidthServer) HoldTime(n int) Time {
	if n < 0 {
		panic("sim: negative transfer size")
	}
	return b.overhead + BpsToTime(n, b.bps)
}

// CompleteH is a transfer's last leg: it releases the server and
// accounts the n bytes moved.
//
//dcslint:hotpath
func (b *BandwidthServer) CompleteH(n int) {
	b.res.Release()
	b.bytes += int64(n)
	b.xfers++
}

// BusyTime returns the accumulated busy time of the server.
func (b *BandwidthServer) BusyTime() Time { return b.res.BusyTime() }

// Bytes returns total payload bytes moved through the server.
func (b *BandwidthServer) Bytes() int64 { return b.bytes }

// Transfers returns the number of transfers served.
func (b *BandwidthServer) Transfers() int64 { return b.xfers }

// NDP pipeline example: the applicability story of §III-D. The same
// object is shipped SSD→NIC through different near-device processing
// units — integrity, encryption, compression — while the FPGA budget
// tracks what each provisioning costs, and the receive side proves
// the transforms are real by inverting them.
package main

import (
	"bytes"
	"fmt"
	"log"

	"dcsctrl"
	"dcsctrl/internal/ndp"
)

func ship(proc dcsctrl.Processing, payload []byte) (dcsctrl.OpResult, []byte) {
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl)
	f, err := tb.StageFile("obj", payload)
	if err != nil {
		log.Fatal(err)
	}
	conn := tb.OpenConnection(true)
	var res dcsctrl.OpResult
	tb.Go("server", func(p *dcsctrl.Proc) {
		res, err = tb.SendFile(p, f, 0, len(payload), conn, proc)
		if err != nil {
			log.Fatal(err)
		}
	})
	tb.Run()
	// Everything the engine transmitted has now landed in the client's
	// reassembly stream (compressed lengths are data-dependent, so the
	// example reads whatever arrived rather than a fixed count).
	return res, drainClient(tb, conn)
}

// drainClient pulls whatever arrived on the client connection.
func drainClient(tb *dcsctrl.Testbed, conn dcsctrl.Conn) []byte {
	n := tb.Cluster.Client.StreamLen(conn.ID)
	var out []byte
	tb.Go("drain", func(p *dcsctrl.Proc) {
		out = tb.ClientRecv(p, conn, n)
	})
	tb.Run()
	return out
}

func main() {
	payload := bytes.Repeat([]byte("device-centric servers move data without CPUs. "), 3000)

	fmt.Println("pipeline              latency      bytes on wire  verification")
	fmt.Println("--------------------  -----------  -------------  ------------")

	res, got := ship(dcsctrl.ProcNone, payload)
	fmt.Printf("%-21s %-12v %-14d payload intact: %v\n", "SSD->NIC", res.Latency, len(got), bytes.Equal(got, payload))

	res, got = ship(dcsctrl.ProcMD5, payload)
	fmt.Printf("%-21s %-12v %-14d digest len: %d\n", "SSD->MD5->NIC", res.Latency, len(got), len(res.Digest))

	res, got = ship(dcsctrl.ProcAES256, payload)
	unit := &ndp.AES256{Key: [32]byte{0x2a}} // the engine's provisioned key slot
	plain, _, _ := ndp.Transform(unit, got)
	fmt.Printf("%-21s %-12v %-14d decrypts back: %v\n", "SSD->AES256->NIC", res.Latency, len(got), bytes.Equal(plain, payload))

	res, got = ship(dcsctrl.ProcGZIP, payload)
	plain, _, err := ndp.Transform(ndp.GUNZIP{}, got)
	fmt.Printf("%-21s %-12v %-14d gunzips back: %v (ratio %.1fx), err=%v\n",
		"SSD->GZIP->NIC", res.Latency, len(got), bytes.Equal(plain, payload),
		float64(len(payload))/float64(len(got)), err)
}

// Swift example: run the OpenStack-Swift-like object workload (PUT/GET
// with MD5, Poisson arrivals, Dropbox file sizes) on the software-
// controlled-P2P baseline and on DCS-ctrl, and compare server CPU at
// the same offered load — the paper's Figure 12a experiment.
package main

import (
	"fmt"
	"slices"

	"dcsctrl"
)

func run(kind dcsctrl.Config) dcsctrl.SwiftResult {
	tb := dcsctrl.NewTestbed(kind)
	cfg := dcsctrl.DefaultSwiftConfig()
	cfg.Conns = 8
	cfg.MeanGap = 250 * dcsctrl.Microsecond
	cfg.Duration = 20 * dcsctrl.Millisecond
	res, err := tb.RunSwift(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	for _, kind := range []dcsctrl.Config{dcsctrl.SWP2P, dcsctrl.DCSCtrl} {
		res := run(kind)
		fmt.Printf("%-9v %4d requests (%d GET / %d PUT)  %5.2f Gbps  server CPU %5.1f%%\n",
			kind, res.Requests, res.GETs, res.PUTs, res.Gbps, res.ServerCPU*100)
		cats := make([]dcsctrl.Category, 0, len(res.ServerBusy))
		for cat := range res.ServerBusy {
			cats = append(cats, cat)
		}
		slices.Sort(cats)
		for _, cat := range cats {
			frac := res.ServerBusy[cat].Seconds() / res.Elapsed.Seconds() / 6 * 100
			if frac >= 0.5 {
				fmt.Printf("          %-12s %5.1f%%\n", cat, frac)
			}
		}
	}
	fmt.Println("\nThe DCS-ctrl server keeps the request handling (user time) but")
	fmt.Println("sheds the storage, network, GPU-control, and copy work onto the")
	fmt.Println("HDC Engine — the paper's ~52% CPU-utilization reduction.")
}

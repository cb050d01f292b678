// Snapshot-codec cases: checkpoint Snap methods walk map-keyed device
// state (queue pairs by QID, flash blocks by LBA) through snap.Codec's
// length-prefixed byte stream, where every byte's POSITION is
// meaningful — a restore replays the stream into a fresh cluster and
// CI compares the bytes against a golden artifact. Ranging the map
// while coding lets Go's randomized iteration order pick the byte
// order; the legal spelling is the collect/sort/index idiom the real
// Snap methods use (sim.SortedKeys, sim.SnapMap).
package maporder

import (
	"sort"

	"dcsctrl/internal/sim/snap"
)

type qpState struct {
	sqHead int
	cqTail int
}

// snapQPsUnsorted codes queue pairs in map order: two snapshots of
// the same simulation produce different checkpoint bytes, and the
// restore overlay applies them in a different order.
func snapQPsUnsorted(c *snap.Codec, qps map[uint16]*qpState) {
	n := len(qps)
	c.Int(&n)
	for qid, qp := range qps {
		c.U16(&qid)       // want `snap codec c\.U16 inside a map range encodes map-keyed state in randomized order`
		c.Int(&qp.sqHead) // want `snap codec c\.Int inside a map range`
		c.Int(&qp.cqTail) // want `snap codec c\.Int inside a map range`
	}
}

// snapQPsSorted is the canonical collect/sort/index walk:
// deterministic bytes no matter the map's insertion history.
func snapQPsSorted(c *snap.Codec, qps map[uint16]*qpState) {
	qids := make([]uint16, 0, len(qps))
	for qid := range qps {
		qids = append(qids, qid)
	}
	sort.Slice(qids, func(i, j int) bool { return qids[i] < qids[j] })
	n := len(qids)
	c.Int(&n)
	for _, qid := range qids {
		qp := qps[qid]
		c.U16(&qid)
		c.Int(&qp.sqHead)
		c.Int(&qp.cqTail)
	}
}

// snapFlashUnsorted streams flash blocks in map order — same bug
// through a different accessor.
func snapFlashUnsorted(c *snap.Codec, flash map[uint64][]byte) {
	n := len(flash)
	c.Count(&n, 8+4)
	for lba, blk := range flash {
		c.U64(&lba)   // want `snap codec c\.U64 inside a map range encodes map-keyed state in randomized order`
		c.Bytes(&blk) // want `snap codec c\.Bytes inside a map range`
	}
}

// snapFlashSorted collects LBAs, sorts, and indexes back into the map
// while coding.
func snapFlashSorted(c *snap.Codec, flash map[uint64][]byte) {
	lbas := make([]uint64, 0, len(flash))
	for lba := range flash {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	n := len(lbas)
	c.Count(&n, 8+4)
	for _, lba := range lbas {
		blk := flash[lba]
		c.U64(&lba)
		c.Bytes(&blk)
	}
}

// loadFlash decodes what snapFlashSorted wrote into a fresh map.
// Decoding never ranges a map, so there is nothing for the analyzer
// here — it exists so the fixture round-trips conceptually.
func loadFlash(c *snap.Codec) map[uint64][]byte {
	var n int
	c.Count(&n, 8+4)
	flash := make(map[uint64][]byte, n)
	for i := 0; i < n; i++ {
		var lba uint64
		var blk []byte
		c.U64(&lba)
		c.Bytes(&blk)
		flash[lba] = blk
	}
	return flash
}

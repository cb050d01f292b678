package ndp

import (
	"bytes"
	"compress/gzip"
	"crypto/aes"
	"crypto/cipher"
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"hash/crc32"
	"io"
	"testing"
	"testing/quick"

	"dcsctrl/internal/fpga"
	"dcsctrl/internal/sim"
)

func data(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*17 + 3)
	}
	return out
}

// unevenChunks are the chunk sizes streamIn cycles through: small,
// odd and page-straddling, so no stream sees its data on a block
// boundary.
var unevenChunks = []int{1, 7, 100, 4093, 16 << 10, 3}

// streamIn feeds in through a fresh stream of u in unevenChunks-sized
// pieces, the way the engine feeds it chunk by chunk, and returns the
// concatenated output and the auxiliary result.
func streamIn(u Unit, in []byte) (out, aux []byte, err error) {
	st := u.NewStream()
	for i := 0; len(in) > 0; i++ {
		k := min(unevenChunks[i%len(unevenChunks)], len(in))
		// The stream may alias its input (pass-through units), so keep
		// a copy of each chunk's output before feeding the next.
		chunk, err := st.Write(in[:k])
		if err != nil {
			return nil, nil, err
		}
		out = append(out, chunk...)
		in = in[k:]
	}
	tail, aux, err := st.Close()
	return append(out, tail...), aux, err
}

func TestIntegrityUnitsMatchStdlib(t *testing.T) {
	in := data(50000)
	md := md5.Sum(in)
	s1 := sha1.Sum(in)
	s256 := sha256.Sum256(in)
	c := crc32.ChecksumIEEE(in)
	crcBE := []byte{byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)}

	cases := []struct {
		unit Unit
		want []byte
	}{
		{MD5{}, md[:]},
		{SHA1{}, s1[:]},
		{SHA256{}, s256[:]},
		{CRC32{}, crcBE},
	}
	for _, tc := range cases {
		out, aux, err := streamIn(tc.unit, in)
		if err != nil {
			t.Fatalf("%s: %v", tc.unit.Name(), err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("%s modified pass-through data", tc.unit.Name())
		}
		if !bytes.Equal(aux, tc.want) {
			t.Fatalf("%s: chunked digest %x, stdlib %x", tc.unit.Name(), aux, tc.want)
		}
		if _, one, _ := Transform(tc.unit, in); !bytes.Equal(one, tc.want) {
			t.Fatalf("%s: one-shot digest %x, stdlib %x", tc.unit.Name(), one, tc.want)
		}
	}
}

func TestAESRoundTripProperty(t *testing.T) {
	unit := &AES256{Key: [32]byte{1, 2, 3}, IV: [16]byte{9}}
	block, err := aes.NewCipher(unit.Key[:])
	if err != nil {
		t.Fatal(err)
	}
	f := func(in []byte) bool {
		// Chunk boundaries must not restart the keystream: the chunked
		// ciphertext equals the stdlib's one-shot CTR.
		ct, _, err := streamIn(unit, in)
		if err != nil {
			return false
		}
		want := make([]byte, len(in))
		cipher.NewCTR(block, unit.IV[:]).XORKeyStream(want, in)
		if !bytes.Equal(ct, want) {
			return false
		}
		if len(in) > 0 && bytes.Equal(ct, in) {
			return false // encryption must change non-empty data
		}
		pt, _, err := Transform(unit, ct) // CTR is symmetric
		return err == nil && bytes.Equal(pt, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Past the quick inputs' sizes: a ciphertext spanning many blocks.
	in := data(70000)
	ct, _, _ := streamIn(unit, in)
	want := make([]byte, len(in))
	cipher.NewCTR(block, unit.IV[:]).XORKeyStream(want, in)
	if !bytes.Equal(ct, want) {
		t.Fatal("chunked AES-CTR differs from the one-shot keystream")
	}
}

func TestAESKeyMatters(t *testing.T) {
	a := &AES256{Key: [32]byte{1}}
	b := &AES256{Key: [32]byte{2}}
	in := data(100)
	ca, _, _ := Transform(a, in)
	cb, _, _ := Transform(b, in)
	if bytes.Equal(ca, cb) {
		t.Fatal("different keys produced identical ciphertext")
	}
}

func TestGzipRoundTripProperty(t *testing.T) {
	f := func(in []byte) bool {
		ct, _, err := streamIn(GZIP{}, in)
		if err != nil {
			return false
		}
		// The stdlib reader decompresses the chunked stream, and so
		// does the GUNZIP unit fed in chunks.
		r, err := gzip.NewReader(bytes.NewReader(ct))
		if err != nil {
			return false
		}
		std, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(std, in) {
			return false
		}
		pt, _, err := streamIn(GUNZIP{}, ct)
		return err == nil && bytes.Equal(pt, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGzipCompresses(t *testing.T) {
	in := bytes.Repeat([]byte("scale-out storage "), 1000)
	ct, _, err := Transform(GZIP{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) >= len(in)/2 {
		t.Fatalf("repetitive data compressed %d -> %d", len(in), len(ct))
	}
}

func TestGunzipRejectsGarbage(t *testing.T) {
	if _, _, err := Transform(GUNZIP{}, []byte("not gzip")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestUnitsForTableIII(t *testing.T) {
	// Instances needed to sustain 10 Gbps, per Table III throughputs.
	cases := []struct {
		unit Unit
		want int
	}{
		{MD5{}, 11}, {SHA1{}, 10}, {SHA256{}, 13},
		{&AES256{}, 1}, {CRC32{}, 1}, {GZIP{}, 1},
	}
	for _, tc := range cases {
		if got := UnitsFor(tc.unit, TargetBps); got != tc.want {
			t.Fatalf("%s: %d units, want %d", tc.unit.Name(), got, tc.want)
		}
	}
}

func TestBankProvisioningClaimsResources(t *testing.T) {
	budget := fpga.NewBudget(fpga.Virtex7VC707())
	for _, u := range fpga.ControllersUsage() {
		budget.MustClaim(u)
	}
	env := sim.NewEnv()
	bank, err := NewBank(env, budget, MD5{}, TargetBps)
	if err != nil {
		t.Fatal(err)
	}
	if bank.Units() != 11 {
		t.Fatalf("units = %d", bank.Units())
	}
	if bank.AggregateBps() < TargetBps {
		t.Fatalf("aggregate %.2f Gbps < target", bank.AggregateBps()/1e9)
	}
	luts, _, _, _ := budget.Totals()
	if luts <= 116344 {
		t.Fatal("bank claimed no LUTs")
	}
	// The remaining fabric still fits the other Table III banks — the
	// paper's headroom claim (§IV-C).
	for _, u := range []Unit{CRC32{}, &AES256{}, GZIP{}} {
		if _, err := NewBank(env, budget, u, TargetBps); err != nil {
			t.Fatalf("no headroom for %s: %v", u.Name(), err)
		}
	}
}

func TestBankRejectedWhenDeviceFull(t *testing.T) {
	budget := fpga.NewBudget(fpga.Device{Name: "tiny", LUTs: 100, Registers: 100, BRAMs: 10})
	env := sim.NewEnv()
	if _, err := NewBank(env, budget, MD5{}, TargetBps); err == nil {
		t.Fatal("bank fit in a 100-LUT device")
	}
}

// runOp drives a staged bank invocation from a goroutine proc,
// parking while it reports not done.
func runOp(p *sim.Proc, op *Op) {
	for !op.Step(p.Ctx()) {
		p.Park()
	}
}

func TestBankProcessingTime(t *testing.T) {
	budget := fpga.NewBudget(fpga.Virtex7VC707())
	env := sim.NewEnv()
	bank, err := NewBank(env, budget, CRC32{}, TargetBps)
	if err != nil {
		t.Fatal(err)
	}
	in := data(64 << 10)
	var took sim.Time
	var aux []byte
	env.Spawn("proc", func(p *sim.Proc) {
		start := p.Now()
		st := bank.Unit().NewStream()
		var op Op
		op.StartChunk(bank, len(in))
		runOp(p, &op)
		if _, err = bank.StreamChunk(st, in); err == nil {
			op.StartClose(bank)
			runOp(p, &op)
			_, aux, err = bank.StreamClose(st)
		}
		took = p.Now() - start
	})
	env.Run(-1)
	if err != nil {
		t.Fatal(err)
	}
	// A setup slot for the chunk and one for the close, plus the chunk
	// at the bank's aggregate rate.
	want := 2*500*sim.Nanosecond + sim.BpsToTime(len(in), 10e9)
	if took != want {
		t.Fatalf("processing took %v, want %v", took, want)
	}
	c := crc32.ChecksumIEEE(in)
	if aux[0] != byte(c>>24) || aux[3] != byte(c) {
		t.Fatal("crc mismatch")
	}
	inv, by := bank.Stats()
	if inv != 1 || by != int64(len(in)) {
		t.Fatalf("stats: %d %d", inv, by)
	}
}

func TestBankSerializesStreams(t *testing.T) {
	budget := fpga.NewBudget(fpga.Virtex7VC707())
	env := sim.NewEnv()
	bank, _ := NewBank(env, budget, CRC32{}, TargetBps)
	in := data(64 << 10)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		env.Spawn("proc", func(p *sim.Proc) {
			var op Op
			op.StartChunk(bank, len(in))
			runOp(p, &op)
			ends = append(ends, p.Now())
		})
	}
	env.Run(-1)
	if ends[1] < 2*sim.BpsToTime(len(in), 10e9) {
		t.Fatalf("two streams did not serialize: %v", ends)
	}
}

func TestTableIIIResourceTotals(t *testing.T) {
	// Reconstructing the multi-instance totals the paper prints.
	cases := []struct {
		unit      Unit
		wantLUTs  int
		tolerance int
	}{
		{MD5{}, 8970, 11},   // 11 instances × per-instance share
		{SHA1{}, 10760, 10}, // integer division rounding
		{SHA256{}, 13090, 13},
		{&AES256{}, 10689, 0},
		{CRC32{}, 93, 0},
		{GZIP{}, 16273, 0},
	}
	for _, tc := range cases {
		n := UnitsFor(tc.unit, TargetBps)
		got := tc.unit.PerUnitUsage().LUTs * n
		diff := got - tc.wantLUTs
		if diff < 0 {
			diff = -diff
		}
		if diff > tc.tolerance {
			t.Fatalf("%s: %d LUTs for 10 Gbps, want %d±%d", tc.unit.Name(), got, tc.wantLUTs, tc.tolerance)
		}
	}
}

package snap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// testSeed pins the quick-check PRNG so failures reproduce exactly
// (the repo-wide convention from sim_test.go).
const testSeed = 1

// roundTripPayload is one randomly generated section payload: a mixed
// sequence of primitive values plus a sparse byte span.
type roundTripPayload struct {
	A   uint8
	B   uint16
	C   uint32
	D   uint64
	E   int64
	F   bool
	S   string
	Raw []byte
}

// snap is the payload's one description, used to save and to load.
func (p *roundTripPayload) snap(c *Codec, span []byte) {
	c.Section("payload")
	c.U8(&p.A)
	c.U16(&p.B)
	c.U32(&p.C)
	c.U64(&p.D)
	c.I64(&p.E)
	c.Bool(&p.F)
	c.Str(&p.S)
	c.Bytes(&p.Raw)
	c.Sparse(span, uint64(len(span)))
	c.EndSection()
}

// save encodes body into a finished checkpoint.
func save(t testing.TB, h Header, body func(c *Codec)) []byte {
	t.Helper()
	c := NewSaver(h)
	body(c)
	data, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEncodeDecodeEncodeByteEquality is the core codec property:
// encode → decode → re-encode must reproduce the identical bytes for
// arbitrary payloads, so checkpoints are content-addressable.
func TestEncodeDecodeEncodeByteEquality(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(testSeed)), MaxCount: 200}
	f := func(p roundTripPayload, pages []byte, hdrCfg uint64) bool {
		// Build a sparse span: a few KiB with the random bytes strewn
		// across page boundaries so zero and non-zero pages both occur.
		span := make([]byte, 3*4096+123)
		for i, b := range pages {
			span[(i*911)%len(span)] = b
		}
		h := Header{Version: Version, Config: hdrCfg}
		data := save(t, h, func(c *Codec) { p.snap(c, span) })

		c, got, err := Open(data)
		if err != nil {
			t.Logf("open: %v", err)
			return false
		}
		if got.Config != hdrCfg {
			return false
		}
		var q roundTripPayload
		span2 := make([]byte, len(span))
		q.snap(c, span2)
		if c.Err() != nil || !bytes.Equal(span, span2) {
			return false
		}
		return bytes.Equal(data, save(t, h, func(c *Codec) { q.snap(c, span2) }))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationRejected flips through every possible truncation point
// of a valid checkpoint: all must be rejected, either at Open (digest
// or envelope) or as a sticky codec error before the decode finishes.
func TestTruncationRejected(t *testing.T) {
	data := save(t, Header{Version: Version}, func(c *Codec) {
		s, v := "hello", uint64(42)
		c.Section("s")
		c.Str(&s)
		c.U64(&v)
		c.EndSection()
	})
	for n := 0; n < len(data); n++ {
		if _, _, err := Open(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestCorruptionRejected flips single bits across the buffer: every
// corruption must fail the digest check.
func TestCorruptionRejected(t *testing.T) {
	data := save(t, Header{Version: Version}, func(c *Codec) {
		b := []byte{1, 2, 3, 4}
		c.Section("s")
		c.Bytes(&b)
		c.EndSection()
	})
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit += 3 {
			c := append([]byte(nil), data...)
			c[i] ^= 1 << bit
			if _, _, err := Open(c); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
}

// TestVersionRejected: a future version must be refused.
func TestVersionRejected(t *testing.T) {
	data := save(t, Header{Version: Version + 1}, func(c *Codec) {
		c.Section("s")
		c.EndSection()
	})
	if _, _, err := Open(data); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestContentHashAligned: finished checkpoints whose bodies are whole
// 8-byte words get distinct, non-zero content addresses. The envelope
// digest is the last word of such a checkpoint, so a content hash that
// shares its basis cancels to zero on every one of them.
func TestContentHashAligned(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range []uint64{1, 2, 3} {
		data := save(t, Header{Version: Version}, func(c *Codec) {
			var pad uint8
			for n := headerSize; n%8 != 0; n++ {
				c.U8(&pad)
			}
			c.U64(&v)
		})
		h := ContentHash(data)
		if h == "0000000000000000" || seen[h] {
			t.Fatalf("%d-byte body: content hash %s is zero or repeats", len(data)-digestSize, h)
		}
		seen[h] = true
	}
}

// twoSections writes sections "a" (one byte) and "b" (one uint64).
func twoSections(c *Codec) {
	a, b := uint8(1), uint64(7)
	c.Section("a")
	c.U8(&a)
	c.EndSection()
	c.Section("b")
	c.U64(&b)
	c.EndSection()
}

// TestSectionOrderEnforced: reading sections out of order fails.
func TestSectionOrderEnforced(t *testing.T) {
	c, _, err := Open(save(t, Header{Version: Version}, twoSections))
	if err != nil {
		t.Fatal(err)
	}
	c.Section("b")
	if c.Err() == nil {
		t.Fatal("out-of-order section accepted")
	}
}

// TestShortSectionConsumptionRejected: a load that leaves bytes behind
// is a layout bug, not a tolerable condition.
func TestShortSectionConsumptionRejected(t *testing.T) {
	c, _, err := Open(save(t, Header{Version: Version}, func(c *Codec) {
		x, y := uint64(1), uint64(2)
		c.Section("s")
		c.U64(&x)
		c.U64(&y)
		c.EndSection()
	}))
	if err != nil {
		t.Fatal(err)
	}
	var x uint64
	c.Section("s")
	c.U64(&x)
	c.EndSection()
	if c.Err() == nil {
		t.Fatal("short consumption accepted")
	}
}

// TestOverReadStopsAtSectionEnd: reads past the section boundary fail
// rather than bleeding into the next section, and leave the target
// untouched.
func TestOverReadStopsAtSectionEnd(t *testing.T) {
	c, _, err := Open(save(t, Header{Version: Version}, twoSections))
	if err != nil {
		t.Fatal(err)
	}
	var a uint8
	b := uint64(99)
	c.Section("a")
	c.U8(&a)
	c.U64(&b) // crosses the boundary
	if c.Err() == nil {
		t.Fatal("over-read crossed section boundary")
	}
	if b != 99 {
		t.Fatalf("failed read overwrote its target with %d", b)
	}
}

// TestSparseAuthoritative: a Sparse load must zero pre-existing
// destination bytes that the snapshot recorded as zero.
func TestSparseAuthoritative(t *testing.T) {
	src := make([]byte, 2*4096)
	src[4096+5] = 0xAB // page 1 non-zero, page 0 all zero
	c, _, err := Open(save(t, Header{Version: Version}, func(c *Codec) {
		c.Section("m")
		c.Sparse(src, uint64(len(src)))
		c.EndSection()
	}))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	dst[17] = 0xFF // stale byte in a zero page: must be cleared
	c.Section("m")
	c.Sparse(dst, uint64(len(dst)))
	c.EndSection()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("sparse restore is not an authoritative image")
	}
}

// TestCountBoundsLength: a list length the rest of the section cannot
// hold fails the load before anything sizes an allocation by it.
func TestCountBoundsLength(t *testing.T) {
	data := save(t, Header{Version: Version}, func(c *Codec) {
		n := 3
		c.Section("s")
		c.Count(&n, 8)
		for i := uint64(0); i < 3; i++ {
			c.U64(&i)
		}
		c.EndSection()
	})
	for _, tc := range []struct {
		minSize int
		ok      bool
	}{{8, true}, {9, false}} {
		c, _, err := OpenTrusted(data)
		if err != nil {
			t.Fatal(err)
		}
		n := -1
		c.Section("s")
		c.Count(&n, tc.minSize)
		if ok := c.Err() == nil; ok != tc.ok || (ok && n != 3) || (!ok && n != 0) {
			t.Fatalf("Count(minSize %d): n=%d err=%v", tc.minSize, n, c.Err())
		}
	}
}

// TestCheckRejectsMismatch: a setup-determined value that differs
// from the target's fails the load and names both values.
func TestCheckRejectsMismatch(t *testing.T) {
	data := save(t, Header{Version: Version}, func(c *Codec) {
		c.Section("s")
		Check(c, "queues", uint32(4), c.U32)
		c.EndSection()
	})
	for _, want := range []uint32{4, 5} {
		c, _, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		c.Section("s")
		Check(c, "queues", want, c.U32)
		c.EndSection()
		if want == 4 && c.Err() != nil {
			t.Fatalf("matching value rejected: %v", c.Err())
		}
		if want == 5 && (c.Err() == nil || !strings.Contains(c.Err().Error(), "queues: snapshot has 4, target has 5")) {
			t.Fatalf("mismatch not reported: %v", c.Err())
		}
	}
}

// fuzzEntry is one element of fuzzState's counted list.
type fuzzEntry struct {
	A uint8
	B uint16
	D int64
	E int
	F bool
}

// fuzzEntrySize is a fuzzEntry's encoded size.
const fuzzEntrySize = 1 + 2 + 8 + 8 + 1

// fuzzState is FuzzCodec's fixed schema: one section that uses every
// accessor.
type fuzzState struct {
	List []fuzzEntry
	Name string
	Blob []byte
	Span []byte // 3 pages

	admitted, leftAfter int // what the last Count admitted, and the bytes left after it
}

func (s *fuzzState) snap(c *Codec) {
	c.Section("fuzz")
	Check(c, "schema", uint32(1), c.U32)
	n := len(s.List)
	c.Count(&n, fuzzEntrySize)
	s.admitted, s.leftAfter = n, c.left()
	if c.Loading() {
		s.List = make([]fuzzEntry, n)
	}
	for i := range s.List {
		e := &s.List[i]
		c.U8(&e.A)
		c.U16(&e.B)
		c.I64(&e.D)
		c.Int(&e.E)
		c.Bool(&e.F)
	}
	c.Str(&s.Name)
	c.Bytes(&s.Blob)
	c.Sparse(s.Span, uint64(len(s.Span)))
	c.EndSection()
}

// fuzzSeed is a valid FuzzCodec input: a checkpoint body whose digest
// the harness appends.
func fuzzSeed(t testing.TB) []byte {
	s := fuzzState{
		List: []fuzzEntry{{1, 2, -3, 4, true}, {5, 6, 7, -8, false}},
		Name: "seed",
		Blob: []byte{9, 8, 7},
		Span: make([]byte, 3*pageSize),
	}
	s.Span[pageSize+1] = 0x5A
	data := save(t, Header{Version: Version}, s.snap)
	return data[:len(data)-digestSize]
}

// FuzzCodec decodes arbitrary bodies (made digest-valid, so the codec
// itself is under test, not the envelope) through a fixed schema. It
// must never panic, and a list length Count admits must fit in the
// bytes left after it.
func FuzzCodec(f *testing.F) {
	f.Add(fuzzSeed(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint64(append([]byte(nil), body...), fnv1a(fnvOffset, body))
		c, _, err := Open(data)
		if err != nil {
			return
		}
		s := fuzzState{Span: make([]byte, 3*pageSize)}
		s.snap(c)
		if s.admitted*fuzzEntrySize > s.leftAfter {
			t.Fatalf("Count admitted %d elements with %d bytes left", s.admitted, s.leftAfter)
		}
	})
}

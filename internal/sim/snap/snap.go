// Package snap is the deterministic checkpoint codec: a versioned,
// length-prefixed binary format for snapshotting complete simulator
// state at quiescent instants and restoring it byte-for-byte
// (DESIGN.md §17).
//
// The format is deliberately dumb: a fixed header (magic, version,
// configuration fingerprint), a sequence of named length-prefixed
// sections in a fixed order, and a trailing FNV-1a digest over
// everything before it. Encode order is fully
// deterministic — map-keyed state must be collected, sorted, and
// indexed before encoding (the dcslint maporder analyzer enforces the
// idiom) — so the same simulator state always produces the same
// bytes, and checkpoint artifacts can be content-addressed and
// re-verified byte-for-byte.
//
// One Codec type both saves and loads. Each checkpointed object
// describes its state once, in a Snap(c *Codec) method that hands
// every field to an accessor by pointer: a saving codec encodes *v, a
// loading one overwrites it. Save and load therefore cannot disagree
// on the layout.
//
// Everything rejects loudly: truncated buffers, bad magic, version
// mismatches, misnamed sections, short or over-long section
// reads, list lengths the section cannot hold, and digest mismatches
// all surface as errors, never as silently wrong simulator state.
package snap

import (
	"encoding/binary"
	"fmt"
)

// Magic identifies a checkpoint buffer ("DCSS" little-endian).
const Magic uint32 = 0x53534344

// Version is the current format version. Readers refuse other
// versions: state layouts change with the models, and decoding an old
// checkpoint into new structs would corrupt a run silently.
const Version uint32 = 4

// Header is the fixed-size preamble of every checkpoint.
type Header struct {
	Version uint32
	Config  uint64 // configuration fingerprint (FNV-1a of the config string)
}

// headerSize is magic + version + config.
const headerSize = 4 + 4 + 8

// digestSize is the trailing FNV-1a 64-bit digest.
const digestSize = 8

// pageSize is the granule of Sparse images.
const pageSize = 4096

// Codec is one pass over a checkpoint, saving or loading. All
// integers are little-endian. Errors are sticky: after the first
// failure every accessor leaves its argument untouched and Err
// reports the original cause, so a Snap method needs no checks of
// its own between fields.
//
// A save must be strictly read-only on simulator state (a snapshot
// must never perturb the run it captures): Snap methods run their
// quiescence checks first, report them through Failf, and write
// derived fields only under Loading.
type Codec struct {
	buf  []byte
	off  int // loading: read position
	load bool
	err  error
	sec  string // open section ("": none)
	// secAt is, when saving, the offset of the open section's length
	// prefix and, when loading, the open section's exclusive end.
	secAt int
}

// snap codes the header, magic number first.
func (h *Header) snap(c *Codec) {
	m := Magic
	c.U32(&m)
	if m != Magic {
		c.Failf("bad magic %#x", m)
	}
	c.U32(&h.Version)
	c.U64(&h.Config)
}

// NewSaver returns a saving codec with the header already encoded.
func NewSaver(h Header) *Codec {
	c := &Codec{}
	h.snap(c)
	return c
}

// Open validates the envelope (magic, digest, header length) and
// returns a loading codec positioned at the first section along with
// the decoded header.
func Open(data []byte) (*Codec, Header, error) { return open(data, true) }

// OpenTrusted is Open without the digest check, for snapshots that
// never left the process: a warm-fork grid restores the same
// in-memory buffer once per cell, and re-hashing tens of megabytes
// per fork costs a meaningful fraction of the restore itself. Buffers
// that crossed a file or the network must go through Open.
func OpenTrusted(data []byte) (*Codec, Header, error) { return open(data, false) }

func open(data []byte, verify bool) (*Codec, Header, error) {
	if len(data) < headerSize+digestSize {
		return nil, Header{}, fmt.Errorf("snap: truncated checkpoint (%d bytes)", len(data))
	}
	body := data[:len(data)-digestSize]
	if verify {
		want := binary.LittleEndian.Uint64(data[len(data)-digestSize:])
		if got := fnv1a(fnvOffset, body); got != want {
			return nil, Header{}, fmt.Errorf("snap: digest mismatch (corrupt checkpoint): got %#x want %#x", got, want)
		}
	}
	c := &Codec{buf: body, load: true}
	var h Header
	h.snap(c)
	if c.err != nil {
		return nil, Header{}, c.err
	}
	if h.Version != Version {
		return nil, Header{}, fmt.Errorf("snap: version %d, this build reads %d", h.Version, Version)
	}
	return c, h, nil
}

// Loading reports whether the codec decodes into its arguments.
func (c *Codec) Loading() bool { return c.load }

// Err returns the first error, if any.
func (c *Codec) Err() error { return c.err }

// Failf records an error unless one is already recorded, prefixed
// with the open section's name. Every later accessor is a no-op.
func (c *Codec) Failf(format string, args ...any) {
	if c.err != nil {
		return
	}
	if c.sec != "" {
		format = c.sec + ": " + format
	}
	c.err = fmt.Errorf("snap: "+format, args...)
}

// Finish appends the content digest and returns the checkpoint bytes,
// or the first error of the save. The codec must not be used
// afterwards.
func (c *Codec) Finish() ([]byte, error) {
	if c.load || c.sec != "" {
		panic("snap: Finish on a loading codec or with an open section")
	}
	if c.err != nil {
		return nil, c.err
	}
	return binary.LittleEndian.AppendUint64(c.buf, fnv1a(fnvOffset, c.buf)), nil
}

// Grow ensures capacity for at least n more bytes when saving. Snap
// methods with a known payload bound (a region's live prefix, a flash
// block count) call it so multi-megabyte sections append without
// repeated buffer doubling — each doubling recopies the whole
// checkpoint built so far.
func (c *Codec) Grow(n int) {
	if c.load || cap(c.buf)-len(c.buf) >= n {
		return
	}
	nb := make([]byte, len(c.buf), len(c.buf)+n)
	copy(nb, c.buf)
	c.buf = nb
}

// left is the number of bytes a load may still read: up to the end of
// the open section, or of the buffer between sections.
func (c *Codec) left() int {
	if c.sec != "" {
		return c.secAt - c.off
	}
	return len(c.buf) - c.off
}

// take consumes n bytes of a load, or fails.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > c.left() {
		c.Failf("truncated read of %d bytes at offset %d", n, c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// saving reports whether accessors append: a save with no error yet.
// Otherwise they take, and take is a no-op once an error is recorded.
func (c *Codec) saving() bool { return !c.load && c.err == nil }

// U8 codes one byte.
func (c *Codec) U8(v *uint8) {
	if c.saving() {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// U16 codes a 16-bit integer.
func (c *Codec) U16(v *uint16) {
	if c.saving() {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}

// U32 codes a 32-bit integer.
func (c *Codec) U32(v *uint32) {
	if c.saving() {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U64 codes a 64-bit integer.
func (c *Codec) U64(v *uint64) {
	if c.saving() {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// I64 codes a signed 64-bit integer.
func (c *Codec) I64(v *int64) {
	x := uint64(*v)
	c.U64(&x)
	if c.load {
		*v = int64(x)
	}
}

// Int codes an int as a signed 64-bit integer.
func (c *Codec) Int(v *int) {
	x := uint64(*v)
	c.U64(&x)
	if c.load {
		*v = int(x)
	}
}

// Bool codes a boolean as one byte.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.U8(&b)
	if c.load {
		*v = b != 0
	}
}

// Str codes a length-prefixed string.
func (c *Codec) Str(v *string) {
	n := uint32(len(*v))
	c.U32(&n)
	if c.saving() {
		c.buf = append(c.buf, *v...)
	} else if b := c.take(int(n)); b != nil {
		*v = string(b)
	}
}

// Bytes codes a length-prefixed byte slice. A load overwrites *v,
// reusing its capacity.
func (c *Codec) Bytes(v *[]byte) {
	n := uint32(len(*v))
	c.U32(&n)
	if c.saving() {
		c.buf = append(c.buf, *v...)
	} else if b := c.take(int(n)); b != nil {
		*v = append((*v)[:0], b...)
	}
}

// Count codes the length of a list of run state whose elements each
// encode to at least minSize bytes. A load fails, leaving *n zero,
// when the rest of the open section cannot hold *n such elements, so
// a crafted length can neither size an allocation nor drive a long
// loop. Lengths fixed by the setup go through Check instead.
func (c *Codec) Count(n *int, minSize int) {
	if minSize < 1 {
		panic("snap: Count needs a positive element size")
	}
	v := uint32(*n)
	c.U32(&v)
	if !c.load {
		return
	}
	*n = 0
	if uint64(v)*uint64(minSize) > uint64(c.left()) {
		c.Failf("list of %d elements exceeds the %d bytes left in the section", v, c.left())
	}
	if c.err == nil {
		*n = int(v)
	}
}

// Check codes a setup-determined value: a save encodes v, a load fails
// unless the snapshot holds the target's own v. A restore target is
// rebuilt from the identical configuration and setup, so a mismatch
// means the snapshot belongs to another system. code is the accessor
// for T, e.g. c.U32.
func Check[T comparable](c *Codec, what string, v T, code func(*T)) {
	got := v
	code(&got)
	if got != v {
		c.Failf("%s: snapshot has %v, target has %v (setup differs)", what, got, v)
	}
}

// Section begins a named length-prefixed section. A load fails unless
// the next section carries the given name. Sections cannot nest.
func (c *Codec) Section(name string) {
	if c.sec != "" {
		panic("snap: Section inside an open section")
	}
	if c.err != nil {
		return
	}
	if !c.load {
		c.Str(&name)
		c.secAt = len(c.buf)
		c.buf = append(c.buf, 0, 0, 0, 0) // length, patched by EndSection
		c.sec = name
		return
	}
	var got string
	var n uint32
	c.Str(&got)
	c.U32(&n)
	if got != name {
		c.Failf("section order mismatch: got %q, want %q", got, name)
	} else if int(n) > c.left() {
		c.Failf("section %q length %d exceeds buffer", name, n)
	}
	if c.err == nil {
		c.sec, c.secAt = name, c.off+int(n)
	}
}

// EndSection closes the open section: a save patches its length
// prefix, a load verifies it was consumed exactly.
func (c *Codec) EndSection() {
	if c.err != nil {
		c.sec = ""
		return
	}
	if c.sec == "" {
		panic("snap: EndSection without Section")
	}
	if !c.load {
		binary.LittleEndian.PutUint32(c.buf[c.secAt:], uint32(len(c.buf)-c.secAt-4))
	} else if c.off != c.secAt {
		c.Failf("section consumed %d bytes short of its length", c.secAt-c.off)
	}
	c.sec = ""
}

// Sparse codes data as its non-zero 4 KiB pages: the span size, a
// page count, then (page index, raw page bytes) pairs in index order.
// A load leaves every uncaptured page of data zero, so the encoding
// is an authoritative image of the full span, not a patch.
//
// bound is a liveness bound on data. A save scans only data[:bound]
// (e.g. a region's write high-water mark: bytes past it are zero, so
// the encoding equals a full scan's). A load takes it as the
// destination's dirty bound: bytes past it are already zero, so only
// gap pages below it need scrubbing.
func (c *Codec) Sparse(data []byte, bound uint64) {
	size := uint64(len(data))
	c.U64(&size)
	bound = min(bound, uint64(len(data)))
	if !c.load {
		if c.err == nil {
			c.saveSparse(data, int(bound))
		}
		return
	}
	if size != uint64(len(data)) {
		c.Failf("sparse span size %d, destination %d", size, len(data))
	}
	// Gap pages are checked before they are cleared — a restore
	// targets a freshly built cluster whose spans are almost entirely
	// zero already, and a read-only scan of a clean page is much
	// cheaper than rewriting it.
	dirtyPages := int((bound + pageSize - 1) / pageSize)
	zeroGap := func(from, to int) { // page indices, [from, to)
		for pi := from; pi < min(to, dirtyPages); pi++ {
			if g := pageAt(data, pi*pageSize); !isZero(g) {
				clear(g)
			}
		}
	}
	var n uint32
	c.U32(&n)
	prev := -1
	for i := uint32(0); i < n && c.err == nil; i++ {
		var idx uint32
		c.U32(&idx)
		if int(idx) <= prev || int(idx)*pageSize >= len(data) {
			c.Failf("sparse page index %d out of order or range", idx)
		}
		if c.err != nil {
			return
		}
		zeroGap(prev+1, int(idx))
		prev = int(idx)
		p := pageAt(data, prev*pageSize)
		if src := c.take(len(p)); src != nil {
			copy(p, src)
		}
	}
	if c.err == nil {
		zeroGap(prev+1, (len(data)+pageSize-1)/pageSize)
	}
}

// saveSparse encodes the non-zero pages of data[:live] in one pass:
// the count word is reserved and backpatched, so each page is
// classified once (zero-scanning the span dominates the cost of
// saving a mostly-empty multi-megabyte region).
func (c *Codec) saveSparse(data []byte, live int) {
	countAt := len(c.buf)
	c.buf = append(c.buf, 0, 0, 0, 0)
	n := uint32(0)
	for off := 0; off < live; off += pageSize {
		p := pageAt(data, off)
		if isZero(p) {
			continue
		}
		n++
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(off/pageSize))
		c.buf = append(c.buf, p...)
	}
	binary.LittleEndian.PutUint32(c.buf[countAt:], n)
}

func pageAt(data []byte, off int) []byte {
	return data[off:min(off+pageSize, len(data))]
}

// isZero scans one stream of 64-bit words, four per iteration.
// Zero-scanning multi-megabyte spans is the dominant cost of a save,
// so the loop shape matters; comparing against a zero page via
// bytes.Equal loses here because it reads two streams.
func isZero(b []byte) bool {
	for len(b) >= 32 {
		if binary.LittleEndian.Uint64(b)|
			binary.LittleEndian.Uint64(b[8:])|
			binary.LittleEndian.Uint64(b[16:])|
			binary.LittleEndian.Uint64(b[24:]) != 0 {
			return false
		}
		b = b[32:]
	}
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// fnv1a computes a 64-bit FNV-1a-style digest of b, folding eight
// little-endian bytes per round with a byte-wise tail. Chunking
// changes the digest values relative to canonical byte-wise FNV-1a,
// which is fine — the digest only ever compares snapshots against
// snapshots — and makes hashing a multi-megabyte checkpoint ~8x
// cheaper, which matters because every save and every open pays it.
// h is the offset basis, fnvOffset for every digest but ContentHash.
func fnv1a(h uint64, b []byte) uint64 {
	const prime = 1099511628211
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= prime
		b = b[8:]
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// fnvOffset is the FNV-1a 64-bit offset basis.
const fnvOffset = 14695981039346656037

// contentOffset is ContentHash's offset basis. A finished checkpoint
// ends with its envelope digest, the state fnv1a reaches over the body
// from fnvOffset; hashed from that same basis, a body of whole 8-byte
// words would end by XORing the state with itself, and every such
// checkpoint would hash to 0. Each round is a bijection of the state,
// so from any other basis the state after the body differs from the
// digest word and the hash cannot cancel.
const contentOffset = fnvOffset ^ 1

// ContentHash returns the digest of a finished checkpoint as a hex
// string, the content-address used in checkpoint artifact names.
func ContentHash(data []byte) string { return fmt.Sprintf("%016x", fnv1a(contentOffset, data)) }

// HashString fingerprints a configuration string for the header.
func HashString(s string) uint64 { return fnv1a(fnvOffset, []byte(s)) }

// Package snap is the deterministic checkpoint codec: a versioned,
// length-prefixed binary format for snapshotting complete simulator
// state at quiescent instants and restoring it byte-for-byte
// (DESIGN.md §17).
//
// The format is deliberately dumb: a fixed header (magic, version,
// knob flags, configuration fingerprint), a sequence of named
// length-prefixed sections written by per-device Snapshotters in a
// fixed registration order, and a trailing FNV-1a digest over
// everything before it. Encode order is fully deterministic — map-
// keyed state must be collected, sorted, and indexed before encoding
// (the dcslint maporder analyzer enforces the idiom) — so the same
// simulator state always produces the same bytes, and checkpoint
// artifacts can be content-addressed and re-verified byte-for-byte.
//
// Everything rejects loudly: truncated buffers, bad magic, version or
// knob mismatches, misnamed sections, short or over-long section
// reads, and digest mismatches all surface as errors, never as
// silently wrong simulator state.
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
const Version uint32 = 1

// Knob flag bits carried in the header. A checkpoint taken under one
// schedule-affecting knob setting cannot restore into an environment
// running another: the event timelines diverge from the first event.
const (
	FlagFusion       uint32 = 1 << 0 // zero-delay fusion enabled
	FlagHandlerProcs uint32 = 1 << 1 // handler-proc model loops (constant: every writer sets it)
	FlagWireFlow     uint32 = 1 << 2 // flow-level wire fidelity
)

// Header is the fixed-size preamble of every checkpoint.
type Header struct {
	Version uint32
	Flags   uint32 // knob bits (FlagFusion | ...)
	Config  uint64 // configuration fingerprint (FNV-1a of the config string)
}

// headerSize is magic + version + flags + config.
const headerSize = 4 + 4 + 4 + 8

// digestSize is the trailing FNV-1a 64-bit digest.
const digestSize = 8

// Snapshotter is one source of checkpoint state: a device model, a
// memory map, a fault injector. Save must be strictly read-only on
// simulator state (a snapshot must never perturb the run it captures)
// and must error when the subsystem is not quiescent; Load overlays
// the decoded state onto a freshly built, settled instance of the same
// configuration.
type Snapshotter interface {
	// SnapSection returns the section name, unique within a checkpoint.
	SnapSection() string
	// SnapSave encodes the subsystem's state.
	SnapSave(w *Writer) error
	// SnapLoad decodes and overlays the subsystem's state.
	SnapLoad(r *Reader) error
}

// Writer builds a checkpoint buffer. All integers are little-endian.
type Writer struct {
	buf      []byte
	secStart int // offset of the current section's length prefix (-1: none)
}

// NewWriter returns a writer with the header already encoded.
func NewWriter(h Header) *Writer {
	w := &Writer{secStart: -1}
	w.u32(Magic)
	w.u32(h.Version)
	w.u32(h.Flags)
	w.u64(h.Config)
	return w
}

func (w *Writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// U8 encodes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 encodes a 16-bit integer.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 encodes a 32-bit integer.
func (w *Writer) U32(v uint32) { w.u32(v) }

// U64 encodes a 64-bit integer.
func (w *Writer) U64(v uint64) { w.u64(v) }

// I64 encodes a signed 64-bit integer.
func (w *Writer) I64(v int64) { w.u64(uint64(v)) }

// Int encodes an int as a signed 64-bit integer.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool encodes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str encodes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes encodes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Section begins a named length-prefixed section. Sections cannot
// nest; the previous section must have been ended.
func (w *Writer) Section(name string) {
	if w.secStart >= 0 {
		panic("snap: Section inside an open section")
	}
	w.Str(name)
	w.secStart = len(w.buf)
	w.u32(0) // length placeholder, patched by EndSection
}

// EndSection closes the current section, patching its length prefix.
func (w *Writer) EndSection() {
	if w.secStart < 0 {
		panic("snap: EndSection without Section")
	}
	n := len(w.buf) - w.secStart - 4
	binary.LittleEndian.PutUint32(w.buf[w.secStart:], uint32(n))
	w.secStart = -1
}

// Finish appends the content digest and returns the checkpoint bytes.
// The writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	if w.secStart >= 0 {
		panic("snap: Finish with an open section")
	}
	w.u64(fnv1a(w.buf))
	return w.buf
}

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Grow ensures capacity for at least n more bytes. Snapshotters with
// a known payload bound (a region's live prefix, a flash block count)
// call it so multi-megabyte sections append without repeated buffer
// doubling — each doubling recopies the whole checkpoint built so
// far.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	nb := make([]byte, len(w.buf), len(w.buf)+n)
	copy(nb, w.buf)
	w.buf = nb
}

// SparseBytes encodes data as its non-zero 4 KiB pages: a page count,
// then (page index, raw page bytes) pairs in index order. Restores go
// through LoadSparseBytes, which leaves every uncaptured page zero,
// so the encoding is an authoritative image of the full span, not a
// patch.
func (w *Writer) SparseBytes(data []byte) {
	w.SparseBytesLive(data, uint64(len(data)))
}

// SparseBytesLive is SparseBytes with a caller-supplied liveness
// bound: bytes at or past live are guaranteed zero (e.g. a region's
// write high-water mark), so only the live prefix is scanned. The
// encoding is byte-identical to a full SparseBytes scan — pages past
// the bound would have been skipped as zero anyway.
func (w *Writer) SparseBytesLive(data []byte, live uint64) {
	const page = 4096
	w.u64(uint64(len(data)))
	if live > uint64(len(data)) {
		live = uint64(len(data))
	}
	// Single pass: reserve the count word and backpatch it, so each
	// page is classified once (zero-scanning the span dominates the
	// cost of saving a mostly-empty multi-megabyte region).
	countAt := len(w.buf)
	w.u32(0)
	n := uint32(0)
	for off := 0; off < int(live); off += page {
		p := pageAt(data, off, page)
		if isZero(p) {
			continue
		}
		n++
		w.u32(uint32(off / page))
		w.buf = append(w.buf, p...)
	}
	binary.LittleEndian.PutUint32(w.buf[countAt:], n)
}

func pageAt(data []byte, off, page int) []byte {
	end := off + page
	if end > len(data) {
		end = len(data)
	}
	return data[off:end]
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

// Reader decodes a checkpoint buffer. Errors are sticky: after the
// first failure every accessor returns a zero value and Err reports
// the original cause, so decode sequences need only one check.
type Reader struct {
	buf    []byte
	off    int
	err    error
	secEnd int // exclusive end of the current section (-1: none)
}

// Open validates the envelope (magic, digest, header length) and
// returns a reader positioned at the first section along with the
// decoded header.
func Open(data []byte) (*Reader, Header, error) { return open(data, true) }

// OpenTrusted is Open without the digest check, for snapshots that
// never left the process: a warm-fork grid restores the same
// in-memory buffer once per cell, and re-hashing tens of megabytes
// per fork costs a meaningful fraction of the restore itself. Buffers
// that crossed a file or the network must go through Open.
func OpenTrusted(data []byte) (*Reader, Header, error) { return open(data, false) }

func open(data []byte, verify bool) (*Reader, Header, error) {
	if len(data) < headerSize+digestSize {
		return nil, Header{}, fmt.Errorf("snap: truncated checkpoint (%d bytes)", len(data))
	}
	body := data[:len(data)-digestSize]
	if verify {
		want := binary.LittleEndian.Uint64(data[len(data)-digestSize:])
		if got := fnv1a(body); got != want {
			return nil, Header{}, fmt.Errorf("snap: digest mismatch (corrupt checkpoint): got %#x want %#x", got, want)
		}
	}
	r := &Reader{buf: body, secEnd: -1}
	if m := r.u32(); m != Magic {
		return nil, Header{}, fmt.Errorf("snap: bad magic %#x", m)
	}
	h := Header{Version: r.u32(), Flags: r.u32(), Config: r.u64()}
	if r.err != nil {
		return nil, Header{}, r.err
	}
	if h.Version != Version {
		return nil, Header{}, fmt.Errorf("snap: version %d, this build reads %d", h.Version, Version)
	}
	return r, h, nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	lim := len(r.buf)
	if r.secEnd >= 0 {
		lim = r.secEnd
	}
	if n < 0 || r.off+n > lim {
		r.fail(fmt.Errorf("snap: truncated read of %d bytes at offset %d", n, r.off))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 decodes a 16-bit integer.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 decodes a 32-bit integer.
func (r *Reader) U32() uint32 { return r.u32() }

// U64 decodes a 64-bit integer.
func (r *Reader) U64() uint64 { return r.u64() }

// I64 decodes a signed 64-bit integer.
func (r *Reader) I64() int64 { return int64(r.u64()) }

// Int decodes an int encoded by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool decodes a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Str decodes a length-prefixed string.
func (r *Reader) Str() string {
	n := r.u32()
	return string(r.take(int(n)))
}

// Bytes decodes a length-prefixed byte slice (a copy).
func (r *Reader) Bytes() []byte {
	n := r.u32()
	return append([]byte(nil), r.take(int(n))...)
}

// Section opens the next section, which must carry the given name.
func (r *Reader) Section(name string) error {
	if r.err != nil {
		return r.err
	}
	if r.secEnd >= 0 {
		r.fail(fmt.Errorf("snap: Section %q inside an open section", name))
		return r.err
	}
	got := r.Str()
	if r.err != nil {
		return r.err
	}
	if got != name {
		r.fail(fmt.Errorf("snap: section order mismatch: got %q, want %q", got, name))
		return r.err
	}
	n := r.u32()
	if r.err != nil {
		return r.err
	}
	if r.off+int(n) > len(r.buf) {
		r.fail(fmt.Errorf("snap: section %q length %d exceeds buffer", name, n))
		return r.err
	}
	r.secEnd = r.off + int(n)
	return nil
}

// EndSection closes the current section, verifying it was consumed
// exactly.
func (r *Reader) EndSection() error {
	if r.secEnd < 0 {
		r.fail(fmt.Errorf("snap: EndSection without Section"))
		return r.err
	}
	if r.err == nil && r.off != r.secEnd {
		r.fail(fmt.Errorf("snap: section consumed %d bytes short of its length", r.secEnd-r.off))
	}
	r.off = r.secEnd
	r.secEnd = -1
	return r.err
}

// LoadSparseBytes decodes a SparseBytes span into dst as an exact
// image of the saved span regardless of dst's prior content: captured
// pages are copied in, and every other page ends zero.
func (r *Reader) LoadSparseBytes(dst []byte) error {
	return r.LoadSparseBytesDirty(dst, uint64(len(dst)))
}

// LoadSparseBytesDirty is LoadSparseBytes with a caller-supplied
// bound on dst's prior content: bytes at or past dirty are guaranteed
// already zero (e.g. the destination region's write high-water mark),
// so only gap pages below it need scrubbing. Gap pages are checked
// before they are cleared — a restore targets a freshly built cluster
// whose spans are almost entirely zero already, and a read-only scan
// of a clean page is much cheaper than rewriting it.
func (r *Reader) LoadSparseBytesDirty(dst []byte, dirty uint64) error {
	const page = 4096
	size := r.u64()
	if r.err != nil {
		return r.err
	}
	if size != uint64(len(dst)) {
		r.fail(fmt.Errorf("snap: sparse span size %d, destination %d", size, len(dst)))
		return r.err
	}
	dirtyPages := int((min(dirty, uint64(len(dst))) + page - 1) / page)
	zeroGap := func(from, to int) { // page indices, [from, to)
		if to > dirtyPages {
			to = dirtyPages
		}
		for pi := from; pi < to; pi++ {
			g := pageAt(dst, pi*page, page)
			if !isZero(g) {
				clear(g)
			}
		}
	}
	n := r.u32()
	prev := -1
	for i := uint32(0); i < n; i++ {
		idx := int(r.u32())
		if r.err != nil {
			return r.err
		}
		if idx <= prev || idx*page >= len(dst) {
			r.fail(fmt.Errorf("snap: sparse page index %d out of order or range", idx))
			return r.err
		}
		zeroGap(prev+1, idx)
		prev = idx
		p := pageAt(dst, idx*page, page)
		src := r.take(len(p))
		if src == nil {
			return r.err
		}
		copy(p, src)
	}
	zeroGap(prev+1, (len(dst)+page-1)/page)
	return r.err
}

// fnv1a computes a 64-bit FNV-1a-style digest of b, folding eight
// little-endian bytes per round with a byte-wise tail. Chunking
// changes the digest values relative to canonical byte-wise FNV-1a,
// which is fine — the digest only ever compares snapshots against
// snapshots — and makes hashing a multi-megabyte checkpoint ~8x
// cheaper, which matters because every save and every open pays it.
func fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
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

// ContentHash returns the FNV-1a digest of data as a hex string, the
// content-address used in checkpoint artifact names.
func ContentHash(data []byte) string { return fmt.Sprintf("%016x", fnv1a(data)) }

// HashString fingerprints a configuration string for the header.
func HashString(s string) uint64 { return fnv1a([]byte(s)) }

package ndp

import (
	"bytes"
	"compress/gzip"
	"crypto/aes"
	"crypto/cipher"
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"dcsctrl/internal/sim"
)

// Stream is a stateful instance of a unit processing one object chunk
// by chunk — the form the HDC Engine uses, where a multi-chunk D2D
// command flows through an NDP unit 64 KB at a time. Write returns
// the output produced for the chunk; Close returns any trailing
// output plus the auxiliary result (digest).
type Stream interface {
	Write(chunk []byte) ([]byte, error)
	Close() (tail, aux []byte, err error)
}

// Op is one bank invocation's simulated cost as a Start/Step machine
// (DESIGN.md §16): a setup slot (buffer switch, unit dispatch), then,
// for a chunk, the bank's aggregate bandwidth for its bytes. Once Step
// reports true the caller applies the transformation with StreamChunk
// or StreamClose. The zero value is idle and reusable.
type Op struct {
	b  *Bank
	n  int // chunk bytes; a close charges no bandwidth
	st opState
}

// opState enumerates where an Op resumes.
type opState int

const (
	opIdle  opState = iota // nothing staged
	opStart                // charge the setup slot
	opSetup                // setup elapsed; acquire the bank (a chunk) or finish (a close)
	opHold                 // bandwidth occupancy elapsed
)

// StartChunk stages the cost of one n-byte chunk through b.
func (o *Op) StartChunk(b *Bank, n int) { o.start(b, n) }

// StartClose stages the cost of finalizing a stream on b: a setup
// slot, no bandwidth.
func (o *Op) StartClose(b *Bank) { o.start(b, -1) }

func (o *Op) start(b *Bank, n int) {
	if o.st != opIdle {
		panic("ndp: Op started while an invocation is in flight")
	}
	o.b, o.n, o.st = b, n, opStart
}

// Step advances the invocation and reports whether its cost has been
// paid. On false the proc is re-armed or enrolled on the bank, and the
// caller must return (a handler body) or park.
//
//dcslint:hotpath
func (o *Op) Step(h *sim.HandlerCtx) bool {
	b := o.b
	for {
		switch o.st {
		case opStart:
			o.st = opSetup
			if b.setup > 0 {
				h.Rearm(b.setup)
				return false
			}
		case opSetup:
			if o.n < 0 {
				o.st = opIdle
				return true
			}
			if !b.bw.AcquireH(h) {
				return false
			}
			o.st = opHold
			if d := b.bw.HoldTime(o.n); d > 0 {
				h.Rearm(d)
				return false
			}
		case opHold:
			b.bw.CompleteH(o.n)
			o.st = opIdle
			return true
		default:
			panic("ndp: Step on idle Op")
		}
	}
}

// StreamChunk processes one chunk through st once its Op (StartChunk)
// has completed, and returns the output produced for the chunk.
func (b *Bank) StreamChunk(st Stream, chunk []byte) ([]byte, error) {
	//dcslint:allow noblockhandler a unit's Write is its stdlib transformation; it takes no Proc and cannot park
	out, err := st.Write(chunk)
	if err != nil {
		return nil, fmt.Errorf("ndp: %s stream: %w", b.unit.Name(), err)
	}
	b.bytes += int64(len(chunk))
	return out, nil
}

// StreamClose finalizes st once its Op (StartClose) has completed.
func (b *Bank) StreamClose(st Stream) (tail, aux []byte, err error) {
	//dcslint:allow noblockhandler a unit's Close finalizes its stdlib transformation; it takes no Proc and cannot park
	tail, aux, err = st.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("ndp: %s close: %w", b.unit.Name(), err)
	}
	b.invocations++
	return tail, aux, nil
}

// hashStream passes data through while accumulating a digest.
type hashStream struct{ h hash.Hash }

func (s *hashStream) Write(chunk []byte) ([]byte, error) {
	s.h.Write(chunk)
	return chunk, nil
}

func (s *hashStream) Close() ([]byte, []byte, error) { return nil, s.h.Sum(nil), nil }

// NewStream implements Unit.
func (MD5) NewStream() Stream { return &hashStream{md5.New()} }

// NewStream implements Unit.
func (SHA1) NewStream() Stream { return &hashStream{sha1.New()} }

// NewStream implements Unit.
func (SHA256) NewStream() Stream { return &hashStream{sha256.New()} }

// NewStream implements Unit. The digest is the IEEE CRC32, big endian.
func (CRC32) NewStream() Stream { return &hashStream{crc32.NewIEEE()} }

// ctrStream carries the CTR keystream position across chunks.
type ctrStream struct {
	s cipher.Stream
}

func (s *ctrStream) Write(chunk []byte) ([]byte, error) {
	out := make([]byte, len(chunk))
	s.s.XORKeyStream(out, chunk)
	return out, nil
}

func (s *ctrStream) Close() ([]byte, []byte, error) { return nil, nil, nil }

// NewStream implements Unit.
func (a *AES256) NewStream() Stream {
	block, err := aes.NewCipher(a.Key[:])
	if err != nil {
		panic(err) // 32-byte key is correct by construction
	}
	return &ctrStream{s: cipher.NewCTR(block, a.IV[:])}
}

// gzipStream emits compressed bytes incrementally (Flush per chunk so
// downstream consumers make progress).
type gzipStream struct {
	buf bytes.Buffer
	w   *gzip.Writer
}

func (s *gzipStream) Write(chunk []byte) ([]byte, error) {
	if _, err := s.w.Write(chunk); err != nil {
		return nil, err
	}
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	out := append([]byte(nil), s.buf.Bytes()...)
	s.buf.Reset()
	return out, nil
}

func (s *gzipStream) Close() ([]byte, []byte, error) {
	if err := s.w.Close(); err != nil {
		return nil, nil, err
	}
	return append([]byte(nil), s.buf.Bytes()...), nil, nil
}

// NewStream implements Unit.
func (GZIP) NewStream() Stream {
	s := &gzipStream{}
	w, err := gzip.NewWriterLevel(&s.buf, gzip.BestSpeed)
	if err != nil {
		panic(err)
	}
	s.w = w
	return s
}

// gunzipStream buffers compressed input and decompresses at Close
// (gzip framing cannot be finalized before the trailer arrives).
type gunzipStream struct {
	buf bytes.Buffer
}

func (s *gunzipStream) Write(chunk []byte) ([]byte, error) {
	s.buf.Write(chunk)
	return nil, nil
}

func (s *gunzipStream) Close() ([]byte, []byte, error) {
	r, err := gzip.NewReader(&s.buf)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	return out, nil, nil
}

// NewStream implements Unit.
func (GUNZIP) NewStream() Stream { return &gunzipStream{} }

// Interface conformance checks.
var (
	_ Unit = MD5{}
	_ Unit = SHA1{}
	_ Unit = SHA256{}
	_ Unit = CRC32{}
	_ Unit = (*AES256)(nil)
	_ Unit = GZIP{}
	_ Unit = GUNZIP{}
)

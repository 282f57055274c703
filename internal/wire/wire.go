// Package wire is the binary sort-payload codec shared by the serving
// tier (POST /sort and /shard negotiate it via Content-Type), the
// cluster tier's scatter/gather, and the streaming external sort's
// spill format. JSON remains the default and the compatibility
// surface; this codec exists for the hot paths where re-marshalling a
// million int64s as decimal strings is the dominant cost.
//
// A payload is one self-describing block:
//
//	offset size  field
//	0      4     magic "WFS1"
//	4      1     version (currently 1)
//	5      1     kind (request / reply / shard reply / spill chunk)
//	6      2     reserved, must be zero
//	8      8     N — key count, little-endian uint64
//	16     8     sum — int64 sum of the keys (wrapping), little-endian
//	24     8     xor — xor of the keys, little-endian
//	32     8·N   the keys, little-endian int64s
//
// The sum/xor pair is the same multiset ledger the cluster tier and
// loadgen verify with: it rides the header, so a receiver folds the
// ledger while streaming the payload and detects a corrupted, torn or
// foreign body without a second pass. Decoding is hostile-input safe
// by construction — the key count is validated against the caller's
// limit before a single key is allocated, every failure is a typed
// *Error wrapping one of the sentinel kinds, and nothing panics (the
// FuzzWire battery holds it to that).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Format constants.
const (
	// Version is the codec version written and accepted.
	Version = 1
	// HeaderLen is the fixed block header size in bytes.
	HeaderLen = 32
	// ContentType is the negotiation token: a POST /sort or /shard
	// request with this Content-Type carries a wire block instead of
	// JSON, and its response is a wire block too.
	ContentType = "application/x-wfsort"
)

// magic is the first four header bytes.
var magic = [4]byte{'W', 'F', 'S', '1'}

// Block kinds.
const (
	// KindRequest is a sort or shard request: the unsorted keys.
	KindRequest byte = 1
	// KindReply is a /sort response: the sorted keys.
	KindReply byte = 2
	// KindShardReply is a /shard response: the sorted keys, with the
	// header ledger doubling as the backend's sum/xor echo the cluster
	// coordinator cross-checks.
	KindShardReply byte = 3
	// KindChunk is one sorted chunk in a SortStream spill file.
	KindChunk byte = 4
)

// maxSaneKeys caps N even when the caller sets no limit: 8·N must not
// overflow and a header promising petabytes is hostile, not big.
const maxSaneKeys = 1 << 40

// Sentinel decode-failure kinds. Every error this package returns
// wraps exactly one of them, so callers classify with errors.Is and
// never parse messages.
var (
	// ErrMagic means the block does not start with the WFS1 magic —
	// wrong endpoint, wrong Content-Type, or line noise.
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion means an unknown codec version or reserved header
	// bits set: written by a future writer, or corrupted.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrKind means the block kind is not the one the caller expected
	// (e.g. a reply block arriving where a request must be).
	ErrKind = errors.New("wire: unexpected block kind")
	// ErrTooLarge means the header's key count exceeds the caller's
	// limit. It is detected before any payload is read or allocated,
	// so an absurd N costs the receiver 32 bytes, not gigabytes.
	ErrTooLarge = errors.New("wire: key count exceeds limit")
	// ErrTruncated means the stream ended inside the header or
	// payload.
	ErrTruncated = errors.New("wire: truncated block")
	// ErrLedger means the payload's folded sum/xor does not match the
	// header's — a torn, corrupted or foreign body.
	ErrLedger = errors.New("wire: ledger mismatch")
)

// Error is the codec's typed error: the sentinel kind plus detail.
type Error struct {
	Kind   error
	Detail string
}

func (e *Error) Error() string {
	if e.Detail == "" {
		return e.Kind.Error()
	}
	return e.Kind.Error() + ": " + e.Detail
}

func (e *Error) Unwrap() error { return e.Kind }

func errf(kind error, format string, args ...any) error {
	return &Error{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// Header is one decoded block header.
type Header struct {
	Kind     byte
	N        int
	Sum, Xor int64
}

// Ledger is the multiset fold every integrity check on a key set
// shares: block headers, shard replies, spill blocks and response
// verification. It is order-independent, so a sorted permutation folds
// exactly like its input, and Add is its one definition.
type Ledger struct {
	N        int64
	Sum, Xor int64
}

// Add folds keys into the ledger.
func (l *Ledger) Add(keys []int64) {
	for _, k := range keys {
		l.Sum += k
		l.Xor ^= k
	}
	l.N += int64(len(keys))
}

// LedgerOf returns the ledger of keys.
func LedgerOf(keys []int64) Ledger {
	var l Ledger
	l.Add(keys)
	return l
}

// Fold returns the sum/xor pair of keys' ledger — what a block header
// carries.
func Fold(keys []int64) (sum, xor int64) {
	l := LedgerOf(keys)
	return l.Sum, l.Xor
}

// IsWire reports whether an HTTP Content-Type (or Accept) value
// selects this codec. Parameters after ";" are ignored.
func IsWire(contentType string) bool {
	for i := 0; i < len(contentType); i++ {
		if contentType[i] == ';' {
			contentType = contentType[:i]
			break
		}
	}
	for len(contentType) > 0 && contentType[len(contentType)-1] == ' ' {
		contentType = contentType[:len(contentType)-1]
	}
	return contentType == ContentType
}

// scratch pools the byte buffers encode and decode stream through, so
// steady-state serving pays no per-request codec allocation beyond the
// keys themselves.
var scratch = sync.Pool{
	New: func() any { b := make([]byte, 32*1024); return &b },
}

// putHeader encodes a header for the keys folded into l.
func putHeader(dst *[HeaderLen]byte, kind byte, l Ledger) {
	copy(dst[0:4], magic[:])
	dst[4] = Version
	dst[5] = kind
	dst[6], dst[7] = 0, 0
	binary.LittleEndian.PutUint64(dst[8:16], uint64(l.N))
	binary.LittleEndian.PutUint64(dst[16:24], uint64(l.Sum))
	binary.LittleEndian.PutUint64(dst[24:32], uint64(l.Xor))
}

// WriteBlock encodes one block — header plus keys — onto w, folding
// the ledger as it streams. Large payloads are written in bounded
// scratch-buffer chunks, never marshalled whole.
func WriteBlock(w io.Writer, kind byte, keys []int64) error {
	var h [HeaderLen]byte
	putHeader(&h, kind, LedgerOf(keys))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	bp := scratch.Get().(*[]byte)
	defer scratch.Put(bp)
	buf := *bp
	per := len(buf) / 8
	for off := 0; off < len(keys); off += per {
		end := off + per
		if end > len(keys) {
			end = len(keys)
		}
		b := buf[:8*(end-off)]
		for i, k := range keys[off:end] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(k))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// AppendBlock appends one encoded block to dst and returns it —
// the in-memory form of WriteBlock, for transports that want a []byte
// body up front.
func AppendBlock(dst []byte, kind byte, keys []int64) []byte {
	var h [HeaderLen]byte
	putHeader(&h, kind, LedgerOf(keys))
	dst = append(dst, h[:]...)
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(k))
	}
	return dst
}

// BlockLen is the encoded size of a block of n keys.
func BlockLen(n int) int { return HeaderLen + 8*n }

// Reader decodes one block from a stream: Header first (validating
// magic, version and the key-count limit before anything is
// allocated), then ReadKeys until io.EOF, folding and verifying the
// ledger on the way. It satisfies the KeySource shape the streaming
// merge and SortStream consume.
type Reader struct {
	r         io.Reader
	h         Header
	gotHeader bool
	remaining int
	got       Ledger // fold of the keys decoded so far
	verified  bool
}

// NewReader returns a block decoder over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Header reads and validates the block header. maxKeys bounds the
// promised key count (<= 0 means the absolute sanity cap only); an
// over-limit count fails here, before any payload allocation. Calling
// Header again returns the same decoded header.
func (d *Reader) Header(maxKeys int) (Header, error) {
	if d.gotHeader {
		return d.h, nil
	}
	var h [HeaderLen]byte
	if _, err := io.ReadFull(d.r, h[:]); err != nil {
		return Header{}, errf(ErrTruncated, "header: %v", err)
	}
	if [4]byte(h[0:4]) != magic {
		return Header{}, errf(ErrMagic, "got % x", h[0:4])
	}
	if h[4] != Version {
		return Header{}, errf(ErrVersion, "version %d", h[4])
	}
	if h[6] != 0 || h[7] != 0 {
		return Header{}, errf(ErrVersion, "reserved bits set")
	}
	if h[5] < KindRequest || h[5] > KindChunk {
		return Header{}, errf(ErrKind, "kind %d", h[5])
	}
	n := binary.LittleEndian.Uint64(h[8:16])
	limit := uint64(maxSaneKeys)
	if maxKeys > 0 && uint64(maxKeys) < limit {
		limit = uint64(maxKeys)
	}
	if n > limit {
		return Header{}, errf(ErrTooLarge, "n=%d exceeds the %d-key limit", n, limit)
	}
	d.h = Header{
		Kind: h[5],
		N:    int(n),
		Sum:  int64(binary.LittleEndian.Uint64(h[16:24])),
		Xor:  int64(binary.LittleEndian.Uint64(h[24:32])),
	}
	d.remaining = d.h.N
	d.gotHeader = true
	return d.h, nil
}

// ReadKeys fills buf with the next decoded keys and reports how many.
// After the last key it verifies the payload ledger against the
// header — a mismatch is an ErrLedger — and thereafter returns
// (0, io.EOF). Header must have been called first.
func (d *Reader) ReadKeys(buf []int64) (int, error) {
	if !d.gotHeader {
		return 0, errf(ErrTruncated, "ReadKeys before Header")
	}
	if d.remaining == 0 {
		if err := d.finish(); err != nil {
			return 0, err
		}
		return 0, io.EOF
	}
	want := len(buf)
	if want > d.remaining {
		want = d.remaining
	}
	if want == 0 {
		return 0, nil
	}
	bp := scratch.Get().(*[]byte)
	defer scratch.Put(bp)
	raw := *bp
	per := len(raw) / 8
	read := 0
	for read < want {
		c := want - read
		if c > per {
			c = per
		}
		b := raw[:8*c]
		if _, err := io.ReadFull(d.r, b); err != nil {
			return read, errf(ErrTruncated, "payload at key %d of %d: %v", d.h.N-d.remaining, d.h.N, err)
		}
		dst := buf[read : read+c]
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		d.got.Add(dst)
		read += c
		d.remaining -= c
	}
	if d.remaining == 0 {
		if err := d.finish(); err != nil {
			return read, err
		}
	}
	return read, nil
}

// finish verifies the streamed ledger once, after the last key.
func (d *Reader) finish() error {
	if d.verified {
		return nil
	}
	if d.got.Sum != d.h.Sum || d.got.Xor != d.h.Xor {
		return errf(ErrLedger, "header sum=%d xor=%d, payload sum=%d xor=%d",
			d.h.Sum, d.h.Xor, d.got.Sum, d.got.Xor)
	}
	d.verified = true
	return nil
}

// ReadBlock decodes one whole block: header validation (wantKind, or 0
// to accept any kind; maxKeys as in Header), payload, ledger check.
// It returns the decoded keys and header.
func ReadBlock(r io.Reader, wantKind byte, maxKeys int) ([]int64, Header, error) {
	d := NewReader(r)
	h, err := d.Header(maxKeys)
	if err != nil {
		return nil, Header{}, err
	}
	if wantKind != 0 && h.Kind != wantKind {
		return nil, h, errf(ErrKind, "got kind %d, want %d", h.Kind, wantKind)
	}
	keys := make([]int64, h.N)
	for got := 0; got < h.N; {
		n, err := d.ReadKeys(keys[got:])
		got += n
		if err != nil {
			return nil, h, err
		}
	}
	if h.N == 0 {
		// Zero-key blocks still verify their (zero) ledger.
		if _, err := d.ReadKeys(nil); err != io.EOF {
			return nil, h, err
		}
	}
	return keys, h, nil
}

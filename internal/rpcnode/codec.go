package rpcnode

// The frame codec: net/rpc's calls and multiplexing over hand-written
// frames instead of gob. Each direction of a connection opens with the
// preamble, then carries frames: a uvarint length, the header (the
// call's seq, its method and a reply's error text), then one body of the
// eight types the four methods take. Ints are varints, lengths uvarints,
// strings length-prefixed, Blocks as they are. A decoded lease or report
// is views of its frame's bytes (Fault and Vals, CrashID, Stack, Blocks,
// ExitStatus) plus one []int and one []string arena; nothing writes to a
// frame once read, and what the coordinator keeps past a call it copies.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"sync"
	"unsafe"

	"afex/internal/core"
)

// preamble opens each direction: a byte no gob stream starts with (gob
// reads 0x80 as an out-of-range count and fails at once), a magic, and
// the protocol generation.
var preamble = [...]byte{0x80, 'a', 'f', 'e', 'x', protoBatched}

// maxFrame caps a frame, 64 KiB a task or result of the largest lease;
// a longer length prefix is refused before anything is allocated for it.
const maxFrame = core.MaxWireBatch << 16

// frameCodec is both ends' rpc.ServerCodec and rpc.ClientCodec; net/rpc
// reads on one goroutine and serializes writes. A server's connection
// decodes its reports into one Results array, lent to the call it was
// decoded for and taken back once that call's reply is written: a
// service keeps nothing of it past its return.
type frameCodec struct {
	conn          io.ReadWriteCloser
	r             *bufio.Reader
	in            wire   // the last frame read, past its header
	seq           uint64 // and its call
	read, written bool   // the preamble has been checked, sent
	out           wire   // the frame being written; its buffer is reused

	mu          sync.Mutex // guards the Results arrays
	spare, lent []ResultWire
	lentSeq     uint64
}

func newFrameCodec(conn io.ReadWriteCloser) *frameCodec {
	return &frameCodec{conn: conn, r: bufio.NewReader(conn)}
}

func (c *frameCodec) ReadRequestHeader(r *rpc.Request) error {
	var errText string
	return c.readFrame(&r.Seq, &r.ServiceMethod, &errText)
}

func (c *frameCodec) ReadResponseHeader(r *rpc.Response) error {
	return c.readFrame(&r.Seq, &r.ServiceMethod, &r.Error)
}

func (c *frameCodec) ReadRequestBody(body any) error {
	rb, ok := body.(*ResultBatch)
	if !ok {
		return c.in.decode(body)
	}
	c.mu.Lock()
	rb.Results, c.spare = c.spare, nil
	c.mu.Unlock()
	err := c.in.decode(rb)
	c.mu.Lock()
	c.lent, c.lentSeq = rb.Results, c.seq
	c.mu.Unlock()
	return err
}

func (c *frameCodec) ReadResponseBody(body any) error { return c.in.decode(body) }

func (c *frameCodec) WriteRequest(r *rpc.Request, body any) error {
	return c.writeFrame(r.Seq, r.ServiceMethod, "", body)
}

func (c *frameCodec) WriteResponse(r *rpc.Response, body any) error {
	c.mu.Lock()
	if c.lent != nil && r.Seq == c.lentSeq {
		clear(c.lent) // its views would keep their frame alive
		c.spare, c.lent = c.lent, nil
	}
	c.mu.Unlock()
	if r.Error != "" {
		body = nil // net/rpc's placeholder: an error reply has no body
	}
	return c.writeFrame(r.Seq, r.ServiceMethod, r.Error, body)
}

func (c *frameCodec) Close() error { return c.conn.Close() }

// readFrame reads the next frame, behind the peer's preamble the first
// time, and decodes its header. A hang-up between frames is io.EOF.
func (c *frameCodec) readFrame(seq *uint64, method, errText *string) error {
	if !c.read {
		p, _ := c.r.Peek(len(preamble)) // a gob server hangs up on ours
		if string(p) != string(preamble[:]) {
			return fmt.Errorf("the peer does not speak wire protocol %d: it opened with %q", protoBatched, p)
		}
		c.r.Discard(len(p))
		c.read = true
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return err
	}
	if n > maxFrame {
		return fmt.Errorf("a frame of %d bytes, over the %d-byte cap", n, maxFrame)
	}
	c.in = wire{b: make([]byte, n), dec: true}
	if _, err := io.ReadFull(c.r, c.in.b); err != nil {
		return err // net/rpc takes io.EOF and io.ErrUnexpectedEOF alike
	}
	c.in.header(seq, method, errText)
	c.seq = *seq
	return c.in.err
}

// writeFrame writes one frame, behind the preamble the first time, in a
// single Write.
func (c *frameCodec) writeFrame(seq uint64, method, errText string, body any) error {
	const head = len(preamble) + binary.MaxVarintLen64 // room for what goes before the frame
	// A field, not a local: a body's wire method would move a local to the heap.
	w := &c.out
	*w = wire{b: append(w.b[:0], make([]byte, head)...)}
	w.header(&seq, &method, &errText)
	w.body(body)
	if w.err == nil && len(w.b)-head > maxFrame {
		w.err = fmt.Errorf("rpcnode: a %s frame of %d bytes, over the %d-byte cap", method, len(w.b)-head, maxFrame)
	}
	if w.err != nil {
		return w.err
	}
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(w.b)-head))
	at := head - copy(w.b[head-k:], n[:k])
	if !c.written {
		at -= copy(w.b[at-len(preamble):], preamble[:])
		c.written = true
	}
	_, err := c.conn.Write(w.b[at:])
	return err
}

// wire encodes or decodes: one method per body type describes it both
// ways, so what is written is what is read. Decoding, the first
// malformed field sets err and empties what is left, so every later
// field reads as zero.
type wire struct {
	b   []byte // written so far, or left to read
	dec bool
	err error
}

var errFrame = errors.New("rpcnode: malformed frame")

func (w *wire) fail() { w.b, w.err = nil, errFrame }

// decode reads body (nil discards it) and refuses bytes left over.
func (w *wire) decode(body any) error {
	if body == nil {
		return nil
	}
	if w.body(body); w.err == nil && len(w.b) > 0 {
		w.fail()
	}
	return w.err
}

// body is one of the eight body types, as a pointer, or (encoding a
// request's argument) as a value.
func (w *wire) body(body any) {
	switch v := body.(type) {
	case nil:
	case *string:
		w.str(v, false)
	case string:
		w.str(&v, false)
	case *bool:
		w.flags(v)
	case Hello:
		v.wire(w)
	case BatchRequest:
		v.wire(w)
	case ResultBatch:
		v.wire(w)
	case interface{ wire(*wire) }:
		v.wire(w)
	default:
		w.err = fmt.Errorf("rpcnode: no wire form for %T", body)
	}
}

func (w *wire) header(seq *uint64, method, errText *string) {
	*seq = w.uvarint(*seq)
	w.str(method, false)
	w.str(errText, false)
}

func (w *wire) uvarint(v uint64) uint64 {
	if !w.dec {
		w.b = binary.AppendUvarint(w.b, v)
		return v
	}
	v, n := binary.Uvarint(w.b)
	if n <= 0 {
		w.fail()
		return 0
	}
	w.b = w.b[n:]
	return v
}

func num[T ~int | ~int64](w *wire, v *T) {
	if !w.dec {
		w.b = binary.AppendVarint(w.b, int64(*v))
		return
	}
	x, n := binary.Varint(w.b)
	if n <= 0 {
		w.fail()
		x, n = 0, 0
	}
	*v, w.b = T(x), w.b[n:]
}

// count is a length of n elements, each at least size bytes: decoding,
// no count claims more than the frame holds.
func (w *wire) count(n, size int) int {
	if u := w.uvarint(uint64(n)); u <= uint64(len(w.b)/size) || !w.dec {
		return int(u)
	}
	w.fail()
	return 0
}

// sized is s's length; decoding, s is reused when it has the capacity.
func sized[T any](w *wire, s *[]T, size int) int {
	n := w.count(len(*s), size)
	if w.dec {
		switch {
		case n == 0:
			*s = nil
		case n <= cap(*s):
			*s = (*s)[:n]
		default:
			*s = make([]T, n)
		}
	}
	return n
}

// arena is a batch's arena of n elements, for take; nil encoding.
func arena[T any](w *wire, n int) []T {
	if n = w.count(n, 1); !w.dec {
		return nil
	}
	return make([]T, n)
}

// take is s's length; decoding, s is the front of the arena.
func take[T any](w *wire, s *[]T, arena *[]T) int {
	n := w.count(len(*s), 1)
	if w.dec {
		if n > len(*arena) {
			w.fail()
			return 0
		}
		*s, *arena = (*arena)[:n:n], (*arena)[n:]
		if n == 0 {
			*s = nil
		}
	}
	return n
}

func (w *wire) bytes(v *[]byte) {
	n := w.count(len(*v), 1)
	if !w.dec {
		w.b = append(w.b, *v...)
	} else if *v = nil; n > 0 {
		*v, w.b = w.b[:n:n], w.b[n:]
	}
}

// str is a string; decoding, a view of the frame, or a copy for what
// outlives it.
func (w *wire) str(v *string, view bool) {
	if !w.dec {
		w.b = append(binary.AppendUvarint(w.b, uint64(len(*v))), *v...)
		return
	}
	var b []byte
	if w.bytes(&b); view && len(b) > 0 {
		*v = unsafe.String(&b[0], len(b))
	} else {
		*v = string(b)
	}
}

// flags is up to eight bools in a byte; decoding, no other bit is set.
func (w *wire) flags(bits ...*bool) {
	var f byte
	for i, set := range bits {
		if *set {
			f |= 1 << i
		}
	}
	if !w.dec {
		w.b = append(w.b, f)
		return
	}
	if len(w.b) == 0 || w.b[0]>>len(bits) != 0 {
		w.fail()
		return
	}
	for i, set := range bits {
		*set = w.b[0]&(1<<i) != 0
	}
	w.b = w.b[1:]
}

func (h *Hello) wire(w *wire) {
	w.str(&h.Manager, false)
	num(w, &h.Proto)
	w.str(&h.Target, false)
}

func (r *HelloReply) wire(w *wire) {
	num(w, &r.Proto)
	for i := range sized(w, &r.AxisNames, 1) {
		for j := range sized(w, &r.AxisNames[i], 1) {
			w.str(&r.AxisNames[i][j], false)
		}
	}
	num(w, &r.Heartbeat)
}

func (q *BatchRequest) wire(w *wire) {
	w.str(&q.Manager, false)
	num(w, &q.Max)
	num(w, &q.AvgTestNS)
}

// A TaskBatch's arenas — its tasks' coordinates and values — are sized
// ahead of its tasks; a decoded task takes at least four bytes.
func (tb *TaskBatch) wire(w *wire) {
	w.flags(&tb.Done, &tb.Retry)
	num(w, &tb.RetryAfterMS)
	ints, vals := 0, 0
	for _, t := range tb.Tasks {
		ints, vals = ints+len(t.Fault), vals+len(t.Vals)
	}
	coords, views := arena[int](w, ints), arena[string](w, vals)
	for i := range sized(w, &tb.Tasks, 4) {
		t := &tb.Tasks[i]
		num(w, &t.Seq)
		num(w, &t.Sub)
		for j := range take(w, &t.Fault, &coords) {
			num(w, &t.Fault[j])
		}
		for j := range take(w, &t.Vals, &views) {
			w.str(&t.Vals[j], true)
		}
	}
	if len(coords)+len(views) > 0 {
		w.fail() // an arena is exactly its tasks'
	}
}

// A ResultBatch's arena of stack frames is sized ahead of its results;
// a decoded result takes at least nine bytes.
func (rb *ResultBatch) wire(w *wire) {
	w.str(&rb.Manager, false)
	w.str(&rb.Backend, false)
	n := 0
	for _, r := range rb.Results {
		n += len(r.Stack)
	}
	frames := arena[string](w, n)
	for i := range sized(w, &rb.Results, 9) {
		r := &rb.Results[i]
		num(w, &r.Seq)
		num(w, &r.TestID)
		w.flags(&r.Failed, &r.Crashed, &r.Hung, &r.Injected, &r.Skipped)
		w.str(&r.CrashID, true)
		r.StackHash = w.uvarint(r.StackHash)
		for j := range take(w, &r.Stack, &frames) {
			w.str(&r.Stack[j], true)
		}
		w.bytes(&r.Blocks)
		w.str(&r.ExitStatus, true)
		num(w, &r.DurationNS)
	}
	if len(frames) > 0 {
		w.fail()
	}
}

func (a *BatchAck) wire(w *wire) { num(w, &a.Folded) }

package store

// The binary journal: the store's fast journal encoding for large
// sessions. Where the JSONL journal pays a JSON object encode per
// record and a full O(run) line scan per resume, the binary segment is
// length-prefixed — appends are one buffer encode + one frame write,
// and reads never scan bytes for delimiters — and a resume starts at
// the tail past the last snapshot instead of decoding the whole run.
//
// Segment layout (journal.afexj, archive.afexj):
//
//	magic "AFEXSEG1" (8 bytes)
//	frame*          [kind:1][uvarint payloadLen][payload][crc32:4 LE]
//
// Entry frames (frameEntry) hold one binary-encoded Entry: fixed field
// order, varint/zigzag ints, uvarint-length strings. The crc (IEEE)
// covers kind + payload, so a segment ends frame-precisely, at its first
// frame that is cut short or fails its crc (walkSegment): the torn tail
// a crash mid-append leaves, which readers drop and Open truncates. A
// frame whose crc holds but whose entry does not decode is corruption,
// which a read refuses. Earlier builds also wrote an index frame after
// every 1,024th entry, and a journal.idx file mirroring them; readers
// step over those frames and never open that file.
//
// The seek is the snapshot's: the writer that appends the live segment
// also publishes the snapshots, so it records in each the offset of the
// entry frame just before it (entry Seq-1). A read trusts that offset
// only when the frame there passes its crc, decodes and holds entry
// Seq-1 — which also proves the journal reaches the snapshot when
// nothing follows it — and otherwise walks from the magic, stepping
// over the entries before the snapshot without keeping them. A stale or
// wrong position costs speed, never correctness.
//
// Compaction (Compact) moves the entries a snapshot already covers
// into archive.afexj and rewrites the live segment with only the tail,
// so directories of long-lived sessions stay O(tail) on the resume
// path while full reads (replay, stats) concatenate archive + live.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strings"
	"unsafe"

	"afex/internal/inject"
	"afex/internal/libc"
)

const (
	binJournalName = "journal.afexj"
	archiveName    = "archive.afexj"

	segMagic = "AFEXSEG1"

	frameEntry = 1
	// frameIndex is the index frame earlier builds wrote; read, never
	// written.
	frameIndex = 2
	// The rest are the snapshot file's (snapshot.go).
	frameState   = 3
	frameKeys    = 4
	frameSets    = 5
	frameKeysRef = 6
	frameStateAt = 7
)

// segEnc is a reusable binary Entry encoder (one per writer goroutine,
// so the hot append path allocates nothing but growth).
type segEnc struct {
	buf []byte
}

func (e *segEnc) reset()        { e.buf = e.buf[:0] }
func (e *segEnc) bytes() []byte { return e.buf }
func (e *segEnc) byte(b byte)   { e.buf = append(e.buf, b) }
func (e *segEnc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}
func (e *segEnc) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *segEnc) int(v int)     { e.buf = binary.AppendVarint(e.buf, int64(v)) }
func (e *segEnc) int64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }
func (e *segEnc) float(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *segEnc) str(s string) {
	e.uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *segEnc) strs(ss []string) {
	e.uint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}
func (e *segEnc) ints(vs []int) {
	e.uint(uint64(len(vs)))
	for _, v := range vs {
		e.int(v)
	}
}

// encodeEntry renders one Entry in the fixed binary field order.
func (e *segEnc) encodeEntry(en *Entry) {
	e.reset()
	e.int(en.Seq)
	e.int(en.Run)
	e.int(en.Sub)
	e.ints(en.Fault)
	e.int(en.Shard)
	e.int(en.MutatedAxis)
	e.str(en.ParentKey)
	e.str(en.Scenario)
	e.int(en.TestID)
	e.uint(uint64(len(en.Plan)))
	for i := range en.Plan {
		f := &en.Plan[i]
		e.str(f.Function)
		e.int(f.CallNumber)
		e.str(f.Err.Errno)
		e.int(f.Err.Retval)
	}
	e.bool(en.Skipped)
	e.str(en.Backend)
	e.str(en.ExitStatus)
	e.int64(en.DurationNS)
	e.bool(en.Injected)
	e.bool(en.Failed)
	e.bool(en.Crashed)
	e.bool(en.Hung)
	e.str(en.CrashID)
	e.strs(en.Stack)
	e.ints(en.Blocks)
	e.int(en.NewBlocks)
	e.float(en.Impact)
	e.float(en.Fitness)
	e.float(en.Relevance)
	e.int(en.Cluster)
}

// segDec decodes the binary Entry encoding. Zero-length slices decode
// to nil and absent strings to "", so a binary round trip produces
// entries deep-equal to a JSONL round trip of the same records. A skipping
// decoder walks the same fields and keeps only the numbers: strings are
// read as views and dropped, lists stepped over, nothing allocated.
type segDec struct {
	buf  []byte
	err  error
	skip bool
}

func (d *segDec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated entry payload")
	}
}

func (d *segDec) uint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *segDec) int() int {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

func (d *segDec) int64() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *segDec) bool() bool {
	if len(d.buf) < 1 {
		d.fail()
		return false
	}
	v := d.buf[0] != 0
	d.buf = d.buf[1:]
	return v
}

func (d *segDec) float() float64 {
	if len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *segDec) str() string {
	if v := d.view(); !d.skip {
		return strings.Clone(v)
	}
	return ""
}

// view is str without the copy: a substring of the payload, which must
// never be written again.
func (d *segDec) view() string {
	n := d.uint()
	if d.err != nil || uint64(len(d.buf)) < n {
		d.fail()
		return ""
	}
	s := unsafe.String(unsafe.SliceData(d.buf), int(n))
	d.buf = d.buf[n:]
	return s
}

// count reads the length of a list whose elements take a byte or more
// each: one the bytes left cannot hold is an error, never an allocation.
func (d *segDec) count() int {
	n := d.uint()
	if n > uint64(len(d.buf)) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *segDec) strs() []string { return decodeList(d, d.str) }
func (d *segDec) ints() []int    { return decodeList(d, d.int) }

// decodeList reads a count and that many elements, kept unless d skips.
func decodeList[T any](d *segDec, elem func() T) []T {
	n := d.uint()
	if d.err != nil || n == 0 || n > uint64(len(d.buf)) {
		return nil
	}
	var out []T
	if !d.skip {
		out = make([]T, 0, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		if v := elem(); !d.skip {
			out = append(out, v)
		}
	}
	return out
}

func decodeEntry(payload []byte) (Entry, error) { return readEntry(&segDec{buf: payload}) }

// readEntry decodes one entry's fields in their fixed order; a skipping
// decoder fails where a full one does and keeps only the numbers.
func readEntry(d *segDec) (Entry, error) {
	var en Entry
	en.Seq = d.int()
	en.Run = d.int()
	en.Sub = d.int()
	en.Fault = d.ints()
	en.Shard = d.int()
	en.MutatedAxis = d.int()
	en.ParentKey = d.str()
	en.Scenario = d.str()
	en.TestID = d.int()
	en.Plan = decodeList(d, func() inject.Fault {
		// Calls in a literal run left to right: the fields' order.
		return inject.Fault{Function: d.str(), CallNumber: d.int(), Err: libc.ErrorReturn{Errno: d.str(), Retval: d.int()}}
	})
	en.Skipped = d.bool()
	en.Backend = d.str()
	en.ExitStatus = d.str()
	en.DurationNS = d.int64()
	en.Injected = d.bool()
	en.Failed = d.bool()
	en.Crashed = d.bool()
	en.Hung = d.bool()
	en.CrashID = d.str()
	en.Stack = d.strs()
	en.Blocks = d.ints()
	en.NewBlocks = d.int()
	en.Impact = d.float()
	en.Fitness = d.float()
	en.Relevance = d.float()
	en.Cluster = d.int()
	if d.err != nil {
		return Entry{}, d.err
	}
	return en, nil
}

// frameWriter writes frames through one buffered writer, which keeps
// the first write error for the flush that ends a batch or a file. A
// frame's payload size is known before it goes out: open writes the
// header, put the payload as it comes, its crc taken as it passes, and
// close the crc. off is where the next frame starts.
type frameWriter struct {
	bw  *bufio.Writer
	off int64
	hdr [1 + binary.MaxVarintLen64]byte
	crc uint32
}

// open starts a frame whose payload, put next, is n bytes.
func (w *frameWriter) open(kind byte, n int) {
	w.hdr[0] = kind
	w.crc = crc32.Update(0, crc32.IEEETable, w.hdr[:1])
	hdr := binary.AppendUvarint(w.hdr[:1], uint64(n))
	w.bw.Write(hdr)
	w.off += int64(len(hdr) + n + 4)
}

func (w *frameWriter) put(p []byte) {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	w.bw.Write(p)
}

func (w *frameWriter) putUint(v uint64) { w.put(binary.AppendUvarint(w.hdr[:0], v)) }

func (w *frameWriter) close() { w.bw.Write(binary.LittleEndian.AppendUint32(w.hdr[:0], w.crc)) }

// segWriter appends entry frames to a segment — the store's writer, the
// archive append and the compaction rewrite all go through one.
type segWriter struct {
	frameWriter
	enc segEnc
}

// newSegWriter appends through bw to a segment of size bytes, starting
// the segment with its magic when it is empty.
func newSegWriter(bw *bufio.Writer, size int64) *segWriter {
	if size == 0 {
		bw.WriteString(segMagic)
		size = int64(len(segMagic))
	}
	return &segWriter{frameWriter: frameWriter{bw: bw, off: size}}
}

// append writes one entry frame and returns the offset it lands at.
func (sw *segWriter) append(e *Entry) int64 {
	off := sw.off
	sw.enc.encodeEntry(e)
	sw.open(frameEntry, len(sw.enc.buf))
	sw.put(sw.enc.buf)
	sw.close()
	return off
}

// appendRange writes the entries with Seq in [lo, hi), in order, and
// returns how many it wrote.
func (sw *segWriter) appendRange(entries []Entry, lo, hi int) int {
	n := 0
	for i := range entries {
		if entries[i].Seq >= lo && entries[i].Seq < hi {
			sw.append(&entries[i])
			n++
		}
	}
	return n
}

// frameReader steps through a segment's frames from an arbitrary frame
// boundary.
type frameReader struct {
	r   *bufio.Reader
	off int64 // offset of the NEXT frame
	// size is where the bytes end: a length prefix reaching past it is a
	// torn frame, never an allocation.
	size int64
	// room, when set, is the spare capacity of the next payload, given
	// its length; the payload's read clears it.
	room func(n int) int
}

// newFrameReader reads frames from r, which is positioned at offset off
// of size bytes.
func newFrameReader(r io.Reader, off, size int64) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 1<<16), off: off, size: size}
}

// next reads one frame. io.EOF (clean boundary) means end of segment;
// any other error means the bytes at r.off do not form a whole valid
// frame — for a tail that is the crash signature, for the middle of a
// file it is corruption, and the caller decides which.
func (fr *frameReader) next() (kind byte, payload []byte, err error) {
	start := fr.off
	kindB, err := fr.r.ReadByte()
	if err != nil {
		return 0, nil, io.EOF
	}
	if kindB < frameEntry || kindB > frameStateAt {
		return 0, nil, fmt.Errorf("bad frame kind %d at offset %d", kindB, start)
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil || int64(n) < 0 || int64(n) > fr.size-start {
		return 0, nil, io.EOF
	}
	lenWidth := uvarintLen(n)
	extra := 0
	if fr.room != nil {
		extra, fr.room = fr.room(int(n)), nil
	}
	payload = make([]byte, n, int(n)+extra)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, io.EOF
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(fr.r, crcBuf[:]); err != nil {
		return 0, nil, io.EOF
	}
	crc := crc32.NewIEEE()
	crc.Write([]byte{kindB})
	crc.Write(payload)
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc.Sum32() {
		return 0, nil, fmt.Errorf("frame crc mismatch at offset %d", start)
	}
	fr.off = start + 1 + int64(lenWidth) + int64(n) + 4
	return kindB, payload, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// walkSegment walks the segment in f to its end: the first frame that
// is torn or fails its crc, or the end of the file. That is where every
// read stops and where repair truncates. A segment shorter than its
// magic ends at 0 and holds nothing. The walk starts past pos — the
// offset of entry seq-1 that a snapshot at seq recorded — when the frame
// there passes its crc, decodes and holds that entry (landed: what lies
// before it was whole when the snapshot was written), and at the magic
// otherwise. keep, when not nil, is handed each entry frame past the
// start and its offset; its error ends the walk.
func walkSegment(f *os.File, pos int64, seq int, keep func(off int64, payload []byte) error) (end int64, landed bool, err error) {
	fi, err := f.Stat()
	if err != nil || fi.Size() < int64(len(segMagic)) {
		return 0, false, err
	}
	size := fi.Size()
	var magic [len(segMagic)]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return 0, false, err
	}
	if string(magic[:]) != segMagic {
		return 0, false, fmt.Errorf("%s is not an AFEX binary journal", f.Name())
	}
	frames := func(at int64) *frameReader {
		return newFrameReader(io.NewSectionReader(f, at, size-at), at, size)
	}
	var fr *frameReader
	if pos >= int64(len(segMagic)) && pos < size && seq > 0 {
		fr = frames(pos)
		if kind, payload, err := fr.next(); err == nil && kind == frameEntry {
			en, err := readEntry(&segDec{buf: payload, skip: true})
			landed = err == nil && en.Seq == seq-1
		}
	}
	if !landed {
		fr = frames(int64(len(segMagic)))
	}
	for {
		at := fr.off
		kind, payload, err := fr.next()
		if err != nil {
			return at, landed, nil
		}
		if kind == frameEntry && keep != nil {
			if err := keep(at, payload); err != nil {
				return at, landed, err
			}
		}
	}
}

// readSegment decodes every entry of a segment file.
func readSegment(path string) ([]Entry, error) {
	entries, _, _, err := readSegmentTail(path, 0, 0)
	return entries, err
}

// readSegmentTail decodes the entries with Seq >= from of the segment at
// path, starting past pos when the walk lands there, so the cost is
// O(tail), not O(run); otherwise it walks from the magic and steps over
// the entries before from, told by their seq, with a skipping decoder.
// An entry whose frame is whole but does not decode is corruption, and
// the read refuses naming its offset. scanned counts the entries walked
// past the start (the flatness tests pin it) and lastSeq is the Seq of
// the segment's final entry — from-1 when the read landed before an
// empty tail, -1 when the segment holds none. A missing segment holds
// none.
func readSegmentTail(path string, pos int64, from int) (entries []Entry, scanned, lastSeq int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, -1, nil
	}
	if err != nil {
		return nil, 0, -1, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	lastSeq = -1
	_, landed, err := walkSegment(f, pos, from, func(off int64, payload []byte) error {
		d := &segDec{buf: payload}
		if seq, w := binary.Varint(payload); w > 0 && seq < int64(from) {
			d.skip = true
		}
		en, err := readEntry(d)
		if err != nil {
			return fmt.Errorf("corrupt journal %s at offset %d: %w", path, off, err)
		}
		scanned++
		lastSeq = en.Seq
		if en.Seq >= from {
			entries = append(entries, en)
		}
		return nil
	})
	if err != nil {
		return nil, 0, -1, fmt.Errorf("store: %w", err)
	}
	if landed && scanned == 0 {
		lastSeq = from - 1
	}
	return entries, scanned, lastSeq, nil
}

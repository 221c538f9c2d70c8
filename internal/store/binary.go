package store

// The indexed binary journal: the store's fast journal encoding for
// large sessions. Where the JSONL journal pays a JSON object encode per
// record and a full O(run) line scan per resume, the binary segment is
// length-prefixed — appends are one buffer encode + one frame write,
// and reads never scan bytes for delimiters — and carries periodic
// index blocks so a resume can seek straight to the tail past the last
// snapshot instead of decoding the whole run.
//
// Segment layout (journal.afexj, archive.afexj):
//
//	magic "AFEXSEG1" (8 bytes)
//	frame*          [kind:1][uvarint payloadLen][payload][crc32c:4 LE]
//
// Frame kinds: frameEntry (payload = one binary-encoded Entry, fixed
// field order, varint/zigzag ints, uvarint-length strings) and
// frameIndex (payload = uvarint nextSeq + uvarint prevIndexOff+1),
// written after every IndexEvery-th entry. The crc covers kind +
// payload, so a torn or corrupted tail is detected frame-precisely.
//
// The side index (journal.idx) mirrors the index frames as fixed
// 16-byte little-endian {seq, frameOff} records — frameOff is the
// offset of the index frame whose stream continues with entry seq.
// It is advisory: every lookup validates the frame it lands on and
// falls back to a full scan on any mismatch, so a stale, torn, or
// deleted side index costs speed, never correctness.
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
	idxName        = "journal.idx"

	segMagic = "AFEXSEG1"

	frameEntry = 1
	frameIndex = 2
	// The rest are the snapshot file's (snapshot.go).
	frameState   = 3
	frameKeys    = 4
	frameSets    = 5
	frameKeysRef = 6

	// DefaultIndexEvery is the entry interval between index blocks: the
	// maximum number of entries a tail seek over-reads.
	DefaultIndexEvery = 1024

	// idxRecSize is the side-index record width: uint64 seq + uint64
	// frame offset, little endian.
	idxRecSize = 16
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

// openFrame starts a frame in dst whose payload, appended by the caller,
// will be n bytes; closeFrame then seals it with the crc. Together they
// render a frame in place, without the payload existing anywhere else.
func openFrame(dst []byte, kind byte, n int) []byte {
	return binary.AppendUvarint(append(dst, kind), uint64(n))
}

func closeFrame(dst []byte, kind byte, n int) []byte {
	crc := crc32.Update(crc32.ChecksumIEEE([]byte{kind}), crc32.IEEETable, dst[len(dst)-n:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// appendFrame renders one complete frame (kind, length, payload, crc)
// into dst and returns the extended slice.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	return closeFrame(append(openFrame(dst, kind, len(payload)), payload...), kind, len(payload))
}

// indexPayload renders an index frame's payload: the seq of the next
// entry frame, and the previous index frame's offset + 1 (0 = none).
func indexPayload(nextSeq int, prevOff int64) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(nextSeq))
	buf = binary.AppendUvarint(buf, uint64(prevOff+1))
	return buf
}

// frameReader steps through a segment's frames from an arbitrary frame
// boundary.
type frameReader struct {
	r   *bufio.Reader
	off int64 // offset of the NEXT frame
	// size is where the bytes end: a length prefix reaching past it is a
	// torn frame, never an allocation.
	size int64
}

// newFrameReader reads frames from r, which is positioned at offset off
// of size bytes.
func newFrameReader(r io.Reader, off, size int64) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 1<<16), off: off, size: size}
}

// fileFrames reads f's frames from its current position, offset off.
func fileFrames(f *os.File, off int64) (*frameReader, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return newFrameReader(f, off, fi.Size()), nil
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
	if kindB < frameEntry || kindB > frameKeysRef {
		return 0, nil, fmt.Errorf("bad frame kind %d at offset %d", kindB, start)
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil || int64(n) < 0 || int64(n) > fr.size-start {
		return 0, nil, io.EOF
	}
	lenWidth := uvarintLen(n)
	payload = make([]byte, n)
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

// readSegment decodes every entry of a segment file. A trailing frame
// that does not validate is treated as a torn crash tail and dropped;
// the repair pass on open turns genuine mid-file damage into a
// truncated-but-consistent file, exactly like the JSONL tail repair.
func readSegment(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, nil // empty or shorter than the magic: no entries yet
	}
	if string(magic[:]) != segMagic {
		return nil, fmt.Errorf("store: %s is not an AFEX binary journal", path)
	}
	fr, err := fileFrames(f, int64(len(segMagic)))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var entries []Entry
	for {
		kind, payload, err := fr.next()
		if err == io.EOF {
			return entries, nil
		}
		if err != nil {
			return entries, nil // torn tail: the entry never happened
		}
		if kind != frameEntry {
			continue
		}
		en, err := decodeEntry(payload)
		if err != nil {
			return entries, nil
		}
		entries = append(entries, en)
	}
}

// idxRec is one side-index record.
type idxRec struct {
	seq int
	off int64
}

// readIdx loads the side index, dropping a torn trailing record and
// records that point past the journal's current size.
func readIdx(path string, journalSize int64) []idxRec {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	n := len(raw) / idxRecSize
	recs := make([]idxRec, 0, n)
	for i := 0; i < n; i++ {
		rec := idxRec{
			seq: int(binary.LittleEndian.Uint64(raw[i*idxRecSize:])),
			off: int64(binary.LittleEndian.Uint64(raw[i*idxRecSize+8:])),
		}
		if rec.off >= journalSize || rec.off < int64(len(segMagic)) || rec.seq < 0 {
			break // stale records past a truncation repair, or not records at all
		}
		recs = append(recs, rec)
	}
	return recs
}

func appendIdxRec(dst []byte, seq int, off int64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(seq))
	return binary.LittleEndian.AppendUint64(dst, uint64(off))
}

// segScan walks frames from a given offset, reporting the end of the
// last whole valid frame, the last index frame's offset, and the entry
// count — the repair and stats primitive.
type segScanResult struct {
	end          int64 // end of the last valid frame
	entries      int
	indexFrames  int
	lastIndexOff int64 // -1 when none seen
	lastSeq      int   // Seq of the last entry seen; -1 when none
}

func scanSegment(f *os.File, from int64) (segScanResult, error) {
	res := segScanResult{end: from, lastIndexOff: -1, lastSeq: -1}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return res, err
	}
	fr, err := fileFrames(f, from)
	if err != nil {
		return res, err
	}
	for {
		start := fr.off
		kind, payload, err := fr.next()
		if err != nil {
			return res, nil // torn or corrupt: res.end is the repair point
		}
		switch kind {
		case frameEntry:
			// Only frame-validated entries count; decode checks happen on
			// read. Peek the Seq (first varint) for repair bookkeeping.
			if v, n := binary.Varint(payload); n > 0 {
				res.lastSeq = int(v)
			}
			res.entries++
		case frameIndex:
			res.indexFrames++
			res.lastIndexOff = start
		}
		res.end = fr.off
	}
}

// repairSegment truncates the live segment to its last whole valid
// frame and trims side-index records the truncation invalidated. It
// uses the side index to keep the scan O(tail); a missing or useless
// index degrades to a full scan. Returns the repaired size and the
// offset of the last index frame (-1 when none).
func repairSegment(journalPath, idxPath string) (size int64, lastIndexOff int64, err error) {
	f, err := os.OpenFile(journalPath, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return 0, -1, nil
	}
	if err != nil {
		return 0, -1, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, -1, err
	}
	size = fi.Size()
	if size < int64(len(segMagic)) {
		// A crash before the magic finished; restart the segment.
		return 0, -1, f.Truncate(0)
	}
	var magic [len(segMagic)]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return 0, -1, err
	}
	if string(magic[:]) != segMagic {
		return 0, -1, fmt.Errorf("%s is not an AFEX binary journal", journalPath)
	}

	// Start the validation scan at the last index frame the side file
	// knows about (validated below by the frame scan itself); everything
	// before it was already validated when the index record was written.
	from := int64(len(segMagic))
	recs := readIdx(idxPath, size)
	lastIndexOff = -1
	if len(recs) > 0 {
		from = recs[len(recs)-1].off
	}
	res, err := scanSegment(f, from)
	if err != nil {
		return 0, -1, err
	}
	if from > int64(len(segMagic)) && res.end == from {
		// The frame at the index offset itself did not validate: the
		// side file is lying. Rescan from the top.
		recs = nil
		from = int64(len(segMagic))
		if res, err = scanSegment(f, from); err != nil {
			return 0, -1, err
		}
	}
	if res.lastIndexOff >= 0 {
		lastIndexOff = res.lastIndexOff
	} else if len(recs) > 1 {
		lastIndexOff = recs[len(recs)-2].off
	}
	if res.end < size {
		if err := f.Truncate(res.end); err != nil {
			return 0, -1, err
		}
		size = res.end
		// Trim index records past the truncation.
		keep := 0
		for _, r := range readIdx(idxPath, size) {
			if r.off < size {
				keep++
			}
		}
		if ifi, err := os.Stat(idxPath); err == nil && ifi.Size() > int64(keep*idxRecSize) {
			if err := os.Truncate(idxPath, int64(keep*idxRecSize)); err != nil {
				return 0, -1, err
			}
		}
	}
	return size, lastIndexOff, nil
}

// readSegmentTail decodes the entries with Seq >= from, seeking via the
// side index so the cost is O(tail + IndexEvery), not O(run); the ones
// before from, told by their seq, are walked by a skipping decoder.
// scanned counts the entries walked or decoded (the flatness tests pin
// it) and lastSeq is the Seq of the segment's final entry — startSeq-1
// when the seek landed past an empty tail, -1 when the whole segment is
// empty. ok is false when the tail cannot be trusted cheaply — the
// caller falls back to the full read.
func readSegmentTail(journalPath, idxPath string, from int) (entries []Entry, scanned, lastSeq int, ok bool) {
	lastSeq = -1
	f, err := os.Open(journalPath)
	if err != nil {
		return nil, 0, -1, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.Size() < int64(len(segMagic)) {
		return nil, 0, -1, false
	}
	start := int64(len(segMagic))
	startSeq := -1
	for _, rec := range readIdx(idxPath, fi.Size()) {
		if rec.seq <= from {
			start, startSeq = rec.off, rec.seq
		} else {
			break
		}
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return nil, 0, -1, false
	}
	fr := newFrameReader(f, start, fi.Size())
	if startSeq >= 0 {
		// Validate the landing: the frame at the index offset must be the
		// index frame announcing startSeq.
		kind, payload, err := fr.next()
		if err != nil || kind != frameIndex {
			return nil, 0, -1, false
		}
		nextSeq, n := binary.Uvarint(payload)
		if n <= 0 || int(nextSeq) != startSeq {
			return nil, 0, -1, false
		}
		// The writer emits an index frame only right after entry
		// startSeq-1, so the segment provably reaches that far even if
		// nothing follows the landing point.
		lastSeq = startSeq - 1
	}
	for {
		kind, payload, err := fr.next()
		if err == io.EOF {
			return entries, scanned, lastSeq, true
		}
		if err != nil {
			return entries, scanned, lastSeq, true // torn tail, same as the full read
		}
		if kind != frameEntry {
			continue
		}
		d := &segDec{buf: payload}
		if seq, w := binary.Varint(payload); w > 0 && seq < int64(from) {
			d.skip = true
		}
		en, derr := readEntry(d)
		if derr != nil {
			return entries, scanned, lastSeq, true
		}
		scanned++
		lastSeq = en.Seq
		if en.Seq >= from {
			entries = append(entries, en)
		}
	}
}

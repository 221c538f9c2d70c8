package store

// The snapshot file (snapshot.afexs): the latest core.SessionState in
// the journal's own crc frames.
//
//	magic "AFEXSNP1" (8 bytes)
//	frameState  uvarint seq, then the state as JSON with every
//	            executed-key list elided
//	frameKeys*  one per elided list, in keyLists order: uvarint count,
//	            then per key uvarint length + bytes
//
// The key lists are the part of a snapshot that grows with the session,
// and a resume needs them whole: length-prefixed, a list is written by
// copying and read as substrings of its frame, with no JSON scanner pass
// over megabytes. Every journal format writes this one file;
// snapshot.json, which builds before it wrote, is read when it is all a
// directory has and removed once a snapshot in this form has landed.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"unsafe"

	"afex/internal/core"
	"afex/internal/explore"
)

const (
	snapshotName       = "snapshot.afexs"
	legacySnapshotName = "snapshot.json"
	snapMagic          = "AFEXSNP1"
)

// keyLists returns every executed-key list of a session state, in the
// fixed order their frames follow the state frame in.
func keyLists(st *core.SessionState) []*[]string {
	var out []*[]string
	if st.Aggregates != nil {
		out = append(out, &st.Aggregates.SeenKeys)
	}
	var walk func(*explore.State)
	walk = func(ex *explore.State) {
		if ex == nil {
			return
		}
		out = append(out, &ex.Seen)
		for i := range ex.Searches {
			out = append(out, &ex.Searches[i].History)
		}
		for _, sh := range ex.Shards {
			walk(sh)
		}
		for i := range ex.Arms {
			walk(ex.Arms[i].State)
		}
	}
	walk(st.Explorer)
	return out
}

// appendSnapshot renders st as a snapshot file, sized before it is
// written and every list framed in place, so a snapshot costs one buffer
// and one copy of its keys. The lists are lifted out of st while its
// JSON is taken and put back after, so st is the caller's alone for the
// duration — as a state handed to SnapshotSession is the store's. The
// lists themselves are only read.
func appendSnapshot(dst []byte, st *core.SessionState) ([]byte, error) {
	lists := keyLists(st)
	keys, sizes := make([][]string, len(lists)), make([]int, len(lists))
	for i, p := range lists {
		keys[i], *p = *p, nil
	}
	raw, err := json.Marshal(st)
	total := len(snapMagic) + len(raw) + 32
	for i, p := range lists {
		*p = keys[i]
		sizes[i] = uvarintLen(uint64(len(keys[i])))
		for _, k := range keys[i] {
			sizes[i] += uvarintLen(uint64(len(k))) + len(k)
		}
		total += sizes[i] + 16
	}
	if err != nil {
		return nil, err
	}
	seq := binary.AppendUvarint(nil, uint64(st.Seq))
	dst = openFrame(append(slices.Grow(dst, total), snapMagic...), frameState, len(seq)+len(raw))
	dst = closeFrame(append(append(dst, seq...), raw...), frameState, len(seq)+len(raw))
	for i, list := range keys {
		enc := segEnc{buf: openFrame(dst, frameKeys, sizes[i])}
		enc.strs(list)
		dst = closeFrame(enc.buf, frameKeys, sizes[i])
	}
	return dst, nil
}

// decodeKeys decodes a key-list payload into substrings of the payload
// itself, which must never be written again (a frame reader's payload is
// its own allocation, so it is not). The count is checked against the
// payload before anything is sized by it; the spare capacity lets the
// resumed session's first appends land in place.
func decodeKeys(payload []byte) ([]string, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload)) {
		return nil, errors.New("bad key count")
	}
	blob := unsafe.String(unsafe.SliceData(payload), len(payload))
	keys := make([]string, 0, n+n/8+32)
	for off := w; uint64(len(keys)) < n; {
		l, w := binary.Uvarint(payload[off:])
		if w <= 0 || l > uint64(len(payload)-off-w) {
			return nil, errors.New("truncated key list")
		}
		off += w
		keys = append(keys, blob[off:off+int(l)])
		off += int(l)
	}
	return keys, nil
}

// decodeSnapshot reads a snapshot of size bytes, in full or — with
// seqOnly — just far enough to know the journal sequence it stands at: a
// framed file's state frame, or all of a legacy JSON one (sniffed by the
// missing magic). Any error means the bytes are not a snapshot: torn,
// corrupt, or something else entirely.
func decodeSnapshot(r io.Reader, size int64, seqOnly bool) (*core.SessionState, error) {
	st := new(core.SessionState)
	fr := newFrameReader(r, int64(len(snapMagic)), size)
	if magic, _ := fr.r.Peek(len(snapMagic)); string(magic) != snapMagic {
		return st, json.NewDecoder(fr.r).Decode(st)
	}
	fr.r.Discard(len(snapMagic))
	kind, payload, err := fr.next()
	seq, w := binary.Uvarint(payload)
	if err == nil && (kind != frameState || w <= 0) {
		err = errors.New("no state frame")
	}
	if st.Seq = int(seq); seqOnly && err == nil {
		return st, nil
	}
	if err == nil {
		err = json.Unmarshal(payload[w:], st)
	}
	for _, list := range keyLists(st) {
		if err != nil {
			break
		}
		if kind, payload, err = fr.next(); err == nil && kind != frameKeys {
			err = fmt.Errorf("frame kind %d where a key list belongs", kind)
		}
		if err == nil {
			*list, err = decodeKeys(payload)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("frame at offset %d: %w", fr.off, err)
	}
	return st, nil
}

// readSnapshot loads dir's latest snapshot — the framed file, else the
// snapshot.json an older build left — with its file name and size. It
// returns (nil, "", 0, nil) when the directory has neither and an error
// naming the file when it has one that does not decode.
func readSnapshot(dir string, seqOnly bool) (st *core.SessionState, name string, size int64, err error) {
	name = snapshotName
	f, err := os.Open(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		name = legacySnapshotName
		f, err = os.Open(filepath.Join(dir, name))
	}
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", 0, nil
		}
		return nil, name, 0, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	if st, err = decodeSnapshot(f, size, seqOnly); err != nil {
		return nil, name, size, fmt.Errorf("%s: %w", name, err)
	}
	return st, name, size, nil
}

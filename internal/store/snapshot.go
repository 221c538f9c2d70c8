package store

// The snapshot file (snapshot.afexs): the latest core.SessionState in
// the journal's own crc frames, each thing it holds written once.
//
//	magic "AFEXSNP1" (8 bytes)
//	frameStateAt  uvarint seq, uvarint position, then the state as JSON
//	              with the cluster sets and every executed-key list
//	              elided: counters, coverage, explorer pool/windows/arms.
//	              The position is the live binary segment's offset of
//	              entry seq-1, where a tail read starts (binary.go); 0
//	              when the writer cannot place it, and always for JSONL
//	frameSets     the three cluster sets in the segEnc codec:
//	                uvarint count, then the distinct frame strings
//	                uvarint count, then each distinct stack of the whole
//	                  snapshot: uvarint depth, then frame ids
//	                per set (similarity memory, failure clusters, crash
//	                  clusters): a presence byte, varint threshold,
//	                  uvarint count and per cluster its representative's
//	                  stack id, uvarint count and the member ids as
//	                  varint deltas, then uvarint count and the memory's
//	                  stack ids
//	              ids are positions in the two tables, handed out in the
//	              order the sets are walked, so the bytes stay a function
//	              of the state
//	frameKeys |   one per elided list, in keyLists order: uvarint count,
//	frameKeysRef  then per key its record, uvarint length + bytes — or,
//	              when the list is element for element an earlier one,
//	              the uvarint position of that list
//
// Nothing that grows with the session is JSON: the sets and the key
// lists are written by copying and read in place — the sets' strings
// substrings of their frame, a key frame's records the arena of an
// explore.Keys that every list referring to it shares — with no scanner
// pass and no reflection, and what is left in the state frame is small
// and fixed, so a new explorer field still costs no codec work. Every
// journal format writes this one file. Two older shapes are still read:
// the files written before the sets had a frame (no frameSets: the sets
// are in the JSON and every list is in full), and snapshot.json (no
// magic: all JSON), which is read when it is all a directory has and
// removed once a snapshot in this form has landed. A state frame of the
// kind earlier builds wrote (frameState: seq, then the JSON) reads as one
// at position 0.
//
// What a periodic snapshot re-encodes: the small state JSON, the sets
// frame's ids and tables (a walk of the sets), and the key lists, copied
// as the bytes they are stored in. What it reuses: each stack's frames,
// interned once in the store's lifetime (setsEnc), and the memory's key
// order, which the cluster set merges forward from its last export.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
)

const (
	snapshotName       = "snapshot.afexs"
	legacySnapshotName = "snapshot.json"
	snapMagic          = "AFEXSNP1"

	// SnapshotFramed, SnapshotFramedJSON and SnapshotJSON name the three
	// shapes a snapshot is read in (Stats.SnapshotFormat): this file, the
	// framed file with the cluster sets still inside the JSON, and
	// snapshot.json.
	SnapshotFramed     = "framed"
	SnapshotFramedJSON = "framed-json"
	SnapshotJSON       = "json"
)

// keyLists returns every executed-key list of a session state, in the
// fixed order their frames follow the state frame in.
func keyLists(st *core.SessionState) []**explore.Keys {
	var out []**explore.Keys
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

// clusterSets returns the three cluster sets of a session state, in the
// order the sets frame holds them.
func clusterSets(st *core.SessionState) [3]**cluster.SetState {
	return [3]**cluster.SetState{&st.AllStacks, &st.FailClusters, &st.CrashClusters}
}

// setsEnc renders the sets frame: the two tables and the sets that refer
// into them grow side by side in one walk. The failure and
// crash clusters' memories are subsets of the similarity memory's and
// every representative is a remembered stack, so interning across the
// three sets is what makes the frame hold each stack once.
//
// A stored stack never changes, so each is interned once in the store's
// lifetime: its storage (first element and depth — a key whose pointer
// holds the storage, so the address is not reused while it is a key)
// names a stack of global frame ids, one per distinct content. Each
// snapshot hands out its own ids in walk order, stamping the global
// entries with its epoch, so a stack an earlier snapshot met costs one
// lookup of its storage and hashes no string.
type setsEnc struct {
	byStorage          map[stackRef]uint32
	byContent          map[string]uint32 // a stack's global frame ids, 4 bytes each
	frameIDs           map[string]uint32
	frameAt            []stamp   // global frame id → its id in this snapshot
	stacks             []content // global stack id → its frames and id
	epoch              uint32
	nFrames, nStacks   uint32
	frameTab, stackTab segEnc
	sets               segEnc
	ids                []byte
}

type stackRef struct {
	first *string
	depth int
}

// stamp is a global id's id in the snapshot of epoch.
type stamp struct{ epoch, id uint32 }

// content is a distinct stack: its byContent key, and its stamp.
type content struct {
	ids string
	at  stamp
}

// stack returns the snapshot's id of a stack, entering it (and the frames
// it is the first to name) into the frame's tables when the snapshot has
// not named it yet.
func (e *setsEnc) stack(stack []string) uint64 {
	ref := stackRef{unsafe.SliceData(stack), len(stack)}
	id, ok := e.byStorage[ref]
	if !ok {
		id = e.intern(stack)
		e.byStorage[ref] = id
	}
	c := &e.stacks[id]
	if c.at.epoch != e.epoch {
		c.at = stamp{e.epoch, e.nStacks}
		e.nStacks++
		e.stackTab.uint(uint64(len(stack)))
		for k, ids := 0, c.ids; k < len(stack); k, ids = k+1, ids[4:] {
			f := &e.frameAt[uint32(ids[0])|uint32(ids[1])<<8|uint32(ids[2])<<16|uint32(ids[3])<<24]
			if f.epoch != e.epoch {
				*f = stamp{e.epoch, e.nFrames}
				e.nFrames++
				e.frameTab.str(stack[k])
			}
			e.stackTab.uint(uint64(f.id))
		}
	}
	return uint64(c.at.id)
}

// intern returns the global id of a stack's content, entering the content
// and the frames it is the first to name.
func (e *setsEnc) intern(stack []string) uint32 {
	e.ids = e.ids[:0]
	for _, f := range stack {
		g, ok := e.frameIDs[f]
		if !ok {
			g = uint32(len(e.frameAt))
			e.frameIDs[f] = g
			e.frameAt = append(e.frameAt, stamp{})
		}
		e.ids = binary.LittleEndian.AppendUint32(e.ids, g)
	}
	id, ok := e.byContent[string(e.ids)]
	if !ok {
		id = uint32(len(e.stacks))
		e.stacks = append(e.stacks, content{ids: string(e.ids)})
		e.byContent[e.stacks[id].ids] = id
	}
	return id
}

func (e *setsEnc) set(st *cluster.SetState) {
	e.sets.bool(st != nil)
	if st == nil {
		return
	}
	e.sets.int(st.Threshold)
	e.sets.uint(uint64(len(st.Clusters)))
	for i := range st.Clusters {
		c := &st.Clusters[i]
		e.sets.uint(e.stack(c.Representative))
		e.sets.uint(uint64(len(c.Members)))
		prev := 0
		for _, m := range c.Members {
			e.sets.int(m - prev)
			prev = m
		}
	}
	e.sets.uint(uint64(len(st.Stacks)))
	for _, stack := range st.Stacks {
		e.sets.uint(e.stack(stack))
	}
}

// encode walks the three sets into the tables and sets of the frame,
// whose size (payloadLen) is then known before it is written. The buffers
// are the encoder's own, emptied for each snapshot; a new epoch empties
// the snapshot's ids.
func (e *setsEnc) encode(sets [3]*cluster.SetState) {
	if e.byStorage == nil {
		n := 0 // sized for the first snapshot, often a store's only one
		if sets[0] != nil {
			n = len(sets[0].Stacks)
		}
		e.byStorage, e.byContent, e.frameIDs = make(map[stackRef]uint32, n), make(map[string]uint32, n), make(map[string]uint32, n)
		e.stacks = make([]content, 0, n)
	}
	if e.epoch++; e.epoch == 0 {
		clear(e.frameAt)
		for i := range e.stacks {
			e.stacks[i].at = stamp{}
		}
		e.epoch = 1
	}
	e.nFrames, e.nStacks = 0, 0
	e.frameTab.reset()
	e.stackTab.reset()
	e.sets.reset()
	for _, st := range sets {
		e.set(st)
	}
}

func (e *setsEnc) payloadLen() int {
	return uvarintLen(uint64(e.nFrames)) + len(e.frameTab.buf) +
		uvarintLen(uint64(e.nStacks)) + len(e.stackTab.buf) + len(e.sets.buf)
}

// decodeSets decodes a sets frame into strings that are substrings of the
// payload and stacks that the sets share, as they share them in the
// frame: both are read-only to whoever holds the state (cluster.SetState
// says so already). Every count is checked against the bytes left before
// anything is sized by it, every id against its table.
func decodeSets(payload []byte) (sets [3]*cluster.SetState, err error) {
	d := segDec{buf: payload}
	pick := func(what string, table int) int {
		id := d.uint()
		if d.err == nil && id >= uint64(table) {
			d.err = fmt.Errorf("%s id %d in a table of %d", what, id, table)
		}
		if d.err != nil {
			return -1
		}
		return int(id)
	}
	frames := make([]string, d.count())
	for i := range frames {
		frames[i] = d.view()
	}
	stacks := make([][]string, d.count())
	for i := 0; i < len(stacks) && d.err == nil; i++ {
		depth := d.count()
		if depth == 0 {
			continue
		}
		stacks[i] = make([]string, depth)
		for k := range stacks[i] {
			id := pick("frame", len(frames))
			if id < 0 {
				break
			}
			stacks[i][k] = frames[id]
		}
	}
	stack := func() []string {
		if id := pick("stack", len(stacks)); id >= 0 {
			return stacks[id]
		}
		return nil
	}
	for s := 0; s < len(sets) && d.err == nil; s++ {
		if !d.bool() {
			continue
		}
		st := &cluster.SetState{Threshold: d.int()}
		// What the JSON these sets used to be in decoded to: no clusters
		// is an empty list, no memory and no members are nil.
		st.Clusters = make([]cluster.ClusterState, d.count())
		for i := 0; i < len(st.Clusters) && d.err == nil; i++ {
			c := &st.Clusters[i]
			c.Representative = stack()
			if n := d.count(); n > 0 {
				c.Members = make([]int, n)
			}
			prev := 0
			for k := 0; k < len(c.Members) && d.err == nil; k++ {
				prev += d.int()
				c.Members[k] = prev
			}
		}
		if n := d.count(); n > 0 {
			st.Stacks = make([][]string, n)
		}
		for i := 0; i < len(st.Stacks) && d.err == nil; i++ {
			st.Stacks[i] = stack()
		}
		sets[s] = st
	}
	if d.err == nil && len(d.buf) > 0 {
		d.err = fmt.Errorf("%d bytes past the last set", len(d.buf))
	}
	return sets, d.err
}

// snapWriter streams snapshot files through the frame writer, each
// frame once, a key list as the storage holding its records; the flush
// that ends a file returns the first write error. The buffers and the
// sets encoder are the writer's, reused from one snapshot to the next.
type snapWriter struct {
	frameWriter
	json bytes.Buffer
	sets setsEnc
}

// write streams st, standing at journal position pos, into dst as a
// snapshot file. The sets and the lists are lifted out of st while its
// JSON is taken and put back after, so st is the caller's alone for the
// duration — as a state handed to SnapshotSession is the store's. The
// sets and lists themselves are only read.
func (w *snapWriter) write(dst io.Writer, st *core.SessionState, pos int64) error {
	lists := keyLists(st)
	keys := make([]*explore.Keys, len(lists))
	for i, p := range lists {
		keys[i], *p = *p, nil
	}
	var sets [3]*cluster.SetState
	for i, p := range clusterSets(st) {
		sets[i], *p = *p, nil
	}
	w.json.Reset()
	err := json.NewEncoder(&w.json).Encode(st)
	for i, p := range clusterSets(st) {
		*p = sets[i]
	}
	for i, p := range lists {
		*p = keys[i]
	}
	if err != nil {
		return err
	}
	raw := w.json.Bytes()[:w.json.Len()-1] // Marshal's bytes: Encode adds a newline
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(dst, 1<<16)
	}
	w.bw.Reset(dst)
	w.bw.WriteString(snapMagic)
	w.open(frameStateAt, uvarintLen(uint64(st.Seq))+uvarintLen(uint64(pos))+len(raw))
	w.putUint(uint64(st.Seq))
	w.putUint(uint64(pos))
	w.put(raw)
	w.close()
	w.writeSets(sets)
	// A list that repeats an earlier one is written as that list's
	// position. A sequential session's lists are the same keys in the
	// same order — the shared prefix of one base and two own segments of
	// equal bytes — so telling costs a compare of two blocks; lists in
	// different orders (parallel folds, portfolio arms) differ early. The
	// first list equal to it is never a reference itself.
lists:
	for i, list := range keys {
		for j := 0; j < i && list.Len() > 0; j++ {
			if list.Equal(keys[j]) {
				w.open(frameKeysRef, uvarintLen(uint64(j)))
				w.putUint(uint64(j))
				w.close()
				continue lists
			}
		}
		records, size := list.Records(), uvarintLen(uint64(list.Len()))
		for _, r := range records {
			size += len(r)
		}
		w.open(frameKeys, size)
		w.putUint(uint64(list.Len()))
		for _, r := range records {
			w.put(r)
		}
		w.close()
	}
	return w.bw.Flush()
}

// writeSets writes the sets frame.
func (w *snapWriter) writeSets(sets [3]*cluster.SetState) {
	e := &w.sets
	e.encode(sets)
	w.open(frameSets, e.payloadLen())
	w.putUint(uint64(e.nFrames))
	w.put(e.frameTab.buf)
	w.putUint(uint64(e.nStacks))
	w.put(e.stackTab.buf)
	w.put(e.sets.buf)
	w.close()
}

// decodeKeys decodes a key-list payload in place: past the count it is
// the list's records, which explore.NewKeys takes as its arena — the
// payload is the caller's no longer. Room past the payload (the executed
// keys' in a resume) asks for tailRoom more offsets too. The count is
// checked against the payload before anything is sized by it, and must
// be written as the writer writes it.
func decodeKeys(payload []byte) (*explore.Keys, error) {
	d := segDec{buf: payload}
	n := d.count()
	if d.err != nil || len(payload)-len(d.buf) != uvarintLen(uint64(n)) {
		return nil, errors.New("malformed key list")
	}
	room := 0
	if cap(payload) > len(payload) {
		room = tailRoom(n, 1)
	}
	return explore.NewKeys(d.buf, n, room)
}

// tailRoom is the room the executed keys are read with past n of them, in
// keys (each 1) or bytes (each the longest key it counts on): a tail
// resume extends them in place, and the default cadence leaves a tail of
// under n/7 or DefaultSnapshotEvery keys. A longer one is copied.
func tailRoom(n, each int) int { return n/6 + core.DefaultSnapshotEvery*each }

// snapDepth is how much of a snapshot file a reader wants.
type snapDepth int

const (
	// snapSeq stops at the journal sequence the snapshot stands at: the
	// head of a framed file's state frame, all of a legacy JSON one.
	snapSeq snapDepth = iota
	// snapShape decodes everything but the key lists, whose lengths come
	// from their frame headers (snapFile.keyCounts).
	snapShape
	snapFull
)

// snapFile describes a snapshot file as it was found: its name, shape,
// size and recorded journal position, how the bytes split between the
// state frame (magic included), the sets frame and the key frames, how
// many keys each list holds and how many of the lists are references to
// an earlier one.
type snapFile struct {
	name, format      string
	size, pos         int64
	state, sets, keys int64
	keyCounts         []int
	refs              int
}

// decodeSnapshot reads a snapshot of file.size bytes to the depth asked
// for and fills in the rest of file. The shape is told by what is there:
// no magic is a legacy JSON snapshot, no sets frame behind the state
// frame one of the framed files that kept the sets in the JSON. Any error
// means the bytes are not a snapshot: torn, corrupt, or something else
// entirely.
func decodeSnapshot(r io.Reader, file *snapFile, depth snapDepth) (*core.SessionState, error) {
	st := new(core.SessionState)
	fr := newFrameReader(r, int64(len(snapMagic)), file.size)
	if magic, _ := fr.r.Peek(len(snapMagic)); string(magic) != snapMagic {
		file.format, file.state = SnapshotJSON, file.size
		err := json.NewDecoder(fr.r).Decode(st)
		for _, list := range keyLists(st) {
			file.keyCounts = append(file.keyCounts, (*list).Len())
		}
		return st, err
	}
	fr.r.Discard(len(snapMagic))
	kind, payload, err := fr.next()
	d := segDec{buf: payload}
	st.Seq = int(d.uint())
	if kind == frameStateAt {
		file.pos = int64(d.uint())
	}
	if err == nil && (kind != frameState && kind != frameStateAt || d.err != nil) {
		err = errors.New("no state frame")
	}
	if depth == snapSeq && err == nil {
		return st, nil
	}
	if err == nil {
		err = json.Unmarshal(d.buf, st)
	}
	file.format, file.state = SnapshotFramedJSON, fr.off
	lists, stateRead := keyLists(st), err == nil
	file.keyCounts = make([]int, 0, len(lists))
	var at int64
	next := func() {
		if err == nil {
			at = fr.off
			kind, payload, err = fr.next()
		}
	}
	next()
	if err == nil && kind == frameSets {
		var sets [3]*cluster.SetState
		sets, err = decodeSets(payload)
		for i, p := range clusterSets(st) {
			*p = sets[i]
		}
		file.format, file.sets = SnapshotFramed, fr.off-at
		if depth == snapFull && st.Aggregates != nil {
			// The first list is the executed keys, which a tail resume
			// extends in place (Store.recoverTail).
			fr.room = func(n int) int { return tailRoom(n, 128) }
		}
		next()
	}
	if stateRead && len(lists) == 0 && err == io.EOF {
		err = nil // nothing follows the state of a session that lists no keys
	}
	for i, list := range lists {
		if i > 0 {
			next()
		}
		switch {
		case err != nil:
		case kind == frameKeys && depth == snapShape:
			d := segDec{buf: payload}
			file.keyCounts = append(file.keyCounts, d.count())
			err = d.err
		case kind == frameKeys:
			*list, err = decodeKeys(payload)
			file.keyCounts = append(file.keyCounts, (*list).Len())
		case kind == frameKeysRef:
			j, w := binary.Uvarint(payload)
			if w <= 0 || j >= uint64(i) {
				err = fmt.Errorf("key list %d written as a reference to list %d", i, j)
				break
			}
			if w < len(payload) {
				err = fmt.Errorf("%d bytes past the reference of key list %d", len(payload)-w, i)
				break
			}
			// The same list: a view is read-only to every holder, and a
			// set built over it shares its arena and that arena's one
			// index.
			if depth == snapFull {
				*list = *lists[j]
			}
			file.keyCounts = append(file.keyCounts, file.keyCounts[j])
			file.refs++
		default:
			err = fmt.Errorf("frame kind %d where a key list belongs", kind)
		}
		if err != nil {
			break
		}
		file.keys += fr.off - at
	}
	if err != nil {
		return nil, fmt.Errorf("frame at offset %d: %w", fr.off, err)
	}
	return st, nil
}

// readSnapshot loads dir's latest snapshot — the framed file, else the
// snapshot.json an older build left — to the depth asked for, and says
// what file it found. It returns a nil state and no error when the
// directory has neither and an error naming the file when it has one that
// does not decode.
func readSnapshot(dir string, depth snapDepth) (*core.SessionState, snapFile, error) {
	file := snapFile{name: snapshotName}
	f, err := os.Open(filepath.Join(dir, file.name))
	if os.IsNotExist(err) {
		file.name = legacySnapshotName
		f, err = os.Open(filepath.Join(dir, file.name))
	}
	if err != nil {
		if os.IsNotExist(err) {
			return nil, snapFile{}, nil
		}
		return nil, file, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		file.size = fi.Size()
	}
	st, err := decodeSnapshot(f, &file, depth)
	if err != nil {
		return nil, file, fmt.Errorf("%s: %w", file.name, err)
	}
	return st, file, nil
}

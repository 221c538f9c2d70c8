// Package store is AFEX's persistent exploration store: an append-only
// JSONL journal of every executed scenario plus periodic compact
// snapshots, kept in a state directory that outlives any single process.
// It is what turns a one-shot exploration into a resumable, incrementally
// smarter search service:
//
//   - crash-safe resume: the journal is the source of truth for executed
//     records; the snapshot carries the state that would otherwise need
//     O(session) replay (explorer fitness state, redundancy clusters,
//     similarity memory). A SIGKILLed session restarts exactly where it
//     stopped, re-executing at most the entries that had not reached the
//     journal yet.
//   - cross-run novelty: scenario keys loaded from prior journals feed
//     the engine's novelty filter, so two runs against the same target
//     never re-execute identical scenarios — every test of a new run
//     spends budget on an unexplored point.
//   - reproduction: `afex replay` re-executes journaled failures
//     directly from their recorded injection plans.
//
// The store never blocks the execution hot path: the engine's
// JournalRecord/SnapshotSession callbacks (made under the session lock,
// which is what keeps the journal in fold order) only push onto an
// unbounded in-memory queue; one background writer goroutine does all
// JSON encoding and file IO, flushing whenever it drains the queue.
//
// Layout of a state directory:
//
//	meta.json     target name, space signature, run count, run stamps,
//	              journal format, compaction watermark
//	journal.jsonl one Entry per executed scenario, append-only (the
//	              default "jsonl" format — human-greppable, and byte
//	              deterministic for a deterministic session)
//	journal.afexj the "binary" format: crc-framed length-prefixed
//	              entries (see binary.go)
//	archive.afexj compacted journal prefix already covered by a
//	              snapshot (binary format only; see Compact)
//	snapshot.afexs latest core.SessionState, replaced atomically: crc
//	              frames — the small fixed part as JSON, the three
//	              cluster sets with each distinct stack and frame once,
//	              then each executed-key list length-prefixed, or as a
//	              reference when it repeats an earlier one (snapshot.go);
//	              in a binary directory it also records where in
//	              journal.afexj the entry before it sits, so a resume
//	              starts at the tail instead of scanning the run; the
//	              same file with the sets still in its JSON, as earlier
//	              builds wrote it, is read too
//	snapshot.json the snapshot as builds before that file wrote it:
//	              read when it is all there is, never written, removed
//	              once a snapshot.afexs has landed
//	journal.idx   a seek file earlier builds kept beside journal.afexj:
//	              never read, never written
//
// The journal format is chosen per directory at creation (Options.Format
// via OpenOptions) and recorded in meta.json; an existing directory
// always keeps its format, and both formats resume and replay
// identically — "binary" just does it without the per-record JSON
// encode and without the O(run) resume scan.
//
// Timestamps are deliberately "from config": journal entries carry only
// their run index (keeping journal bytes deterministic for a
// deterministic session); the wall-clock stamp of each run — caller
// provided, defaulting to the current time — lives once in meta.json.
package store

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
	"slices"
	"sync"
	"time"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/prog"
)

const (
	metaName    = "meta.json"
	journalName = "journal.jsonl"
	lockName    = "lock"

	// Version guards the on-disk format.
	Version = 1

	// FormatJSONL and FormatBinary are the journal formats a state
	// directory can use. JSONL is the default: one JSON object per line,
	// byte-deterministic for deterministic sessions and greppable.
	// Binary is the hot-path format: length-prefixed crc-framed entries,
	// appended without JSON encoding and resumed in O(snapshot + tail).
	FormatJSONL  = "jsonl"
	FormatBinary = "binary"
)

// Options tunes OpenOptions. The zero value opens with the directory's
// existing format (JSONL for new directories) and full-journal resume.
type Options struct {
	// Format selects the journal format for a NEW directory: FormatJSONL
	// (the default) or FormatBinary. An existing directory keeps the
	// format it was created with; asking for a different one is an
	// error, never a silent rewrite.
	Format string
	// TailResume lets Recover materialize only the journal tail past the
	// latest snapshot (binary format only): counters and seen keys for
	// the covered prefix come from the snapshot's aggregates, so a
	// 100k-entry session resumes in O(snapshot + tail) instead of
	// decoding every entry. Recover falls back to the full-journal path
	// whenever the snapshot cannot self-describe its prefix.
	TailResume bool
	// Peer/Peers record a multi-coordinator shard assignment: this
	// directory journals peer index Peer of a space split across Peers
	// coordinators (faultspace.Union.Shard). Recorded in meta.json on
	// first open and validated on reopen, so each peer always resumes
	// its own region — opening a peer directory with a different
	// assignment (or a non-peer directory as a peer) is an error. Zero
	// values mean "not a peer shard".
	Peer  int
	Peers int
}

// Meta describes a state directory.
type Meta struct {
	Version int `json:"version"`
	// Target is the system under test all runs in this directory share.
	Target string `json:"target"`
	// SpaceSignature is the faultspace.Signature every run must match —
	// a journal written against one space must never seed exploration of
	// another.
	SpaceSignature string `json:"spaceSignature"`
	// Runs counts sessions that appended to this directory.
	Runs int `json:"runs"`
	// Stamps records one caller-provided timestamp per run.
	Stamps []string `json:"stamps,omitempty"`
	// Journal is the directory's journal format (FormatJSONL or
	// FormatBinary). Absent in directories written before formats
	// existed — those are JSONL by construction.
	Journal string `json:"journal,omitempty"`
	// CompactedSeq is the compaction watermark of a binary directory:
	// entries [0, CompactedSeq) live in archive.afexj, the live journal
	// holds the rest. Always <= the snapshot's Seq.
	CompactedSeq int `json:"compactedSeq,omitempty"`
	// Peer/Peers record the directory's multi-coordinator shard
	// assignment (Options.Peer/Peers): region Peer of Peers. Absent for
	// single-coordinator directories.
	Peer  int `json:"peer,omitempty"`
	Peers int `json:"peers,omitempty"`
}

// Entry is one journaled scenario execution: the candidate's coordinates
// and provenance, the observed outcome, and the session's scoring of it.
type Entry struct {
	// Seq is the record's session-wide execution index (== core.Record.ID).
	Seq int `json:"seq"`
	// Run indexes Meta.Stamps: which run executed this entry.
	Run int `json:"run"`
	// Sub and Fault are the point's coordinates; Shard the owning shard
	// of a sharded session (-1 otherwise).
	Sub   int   `json:"sub"`
	Fault []int `json:"fault"`
	Shard int   `json:"shard"`
	// MutatedAxis and ParentKey are the candidate's mutation provenance
	// (replayed into the explorer when resuming past a snapshot).
	MutatedAxis int    `json:"mutatedAxis"`
	ParentKey   string `json:"parentKey,omitempty"`

	Scenario string         `json:"scenario,omitempty"`
	TestID   int            `json:"testID"`
	Plan     []inject.Fault `json:"plan,omitempty"`
	Skipped  bool           `json:"skipped,omitempty"`

	// Backend is the execution backend that ran the scenario; absent
	// means "model", which keeps model journals byte-identical to the
	// pre-backend format (and deterministic for deterministic
	// sessions). ExitStatus and DurationNS are the process backend's
	// exit disposition and wall clock, likewise absent for model runs.
	Backend    string `json:"backend,omitempty"`
	ExitStatus string `json:"exitStatus,omitempty"`
	DurationNS int64  `json:"durationNS,omitempty"`

	Injected bool     `json:"injected,omitempty"`
	Failed   bool     `json:"failed,omitempty"`
	Crashed  bool     `json:"crashed,omitempty"`
	Hung     bool     `json:"hung,omitempty"`
	CrashID  string   `json:"crashID,omitempty"`
	Stack    []string `json:"stack,omitempty"`
	Blocks   []int    `json:"blocks,omitempty"`

	NewBlocks int     `json:"newBlocks,omitempty"`
	Impact    float64 `json:"impact"`
	Fitness   float64 `json:"fitness"`
	Relevance float64 `json:"relevance,omitempty"`
	Cluster   int     `json:"cluster"`
}

// Key returns the entry's scenario key (the novelty/deduplication
// identity, identical to faultspace.Point.Key).
func (e *Entry) Key() string {
	return faultspace.Point{Sub: e.Sub, Fault: e.Fault}.Key()
}

// Record rebuilds the core record the entry was journaled from. The
// outcome's block set and the injection plan round-trip; per-trial state
// like Precision does not (it is measured, not explored).
func (e *Entry) Record() core.Record {
	out := prog.Outcome{
		Failed:         e.Failed,
		Crashed:        e.Crashed,
		Hung:           e.Hung,
		CrashID:        e.CrashID,
		Injected:       e.Injected,
		InjectionStack: e.Stack,
	}
	if len(e.Blocks) > 0 {
		out.Blocks = make(map[int]struct{}, len(e.Blocks))
		for _, b := range e.Blocks {
			out.Blocks[b] = struct{}{}
		}
		out.BlockSum = prog.SumBlocks(out.Blocks)
	}
	backendName := e.Backend
	if backendName == "" {
		// Absent means model — both in journals written by this version
		// (which omit the default) and in pre-backend journals (whose
		// sessions could only run the model).
		backendName = backend.Model
	}
	return core.Record{
		ID:         e.Seq,
		Point:      faultspace.Point{Sub: e.Sub, Fault: append(faultspace.Fault(nil), e.Fault...)},
		Scenario:   e.Scenario,
		TestID:     e.TestID,
		Plan:       inject.Plan{Faults: append([]inject.Fault(nil), e.Plan...)},
		Skipped:    e.Skipped,
		Backend:    backendName,
		ExitStatus: e.ExitStatus,
		Duration:   time.Duration(e.DurationNS),
		Outcome:    out,
		NewBlocks:  e.NewBlocks,
		Impact:     e.Impact,
		Fitness:    e.Fitness,
		Cluster:    e.Cluster,
		Relevance:  e.Relevance,
		Shard:      e.Shard,
	}
}

// Feedback rebuilds the explorer feedback for resume replay.
func (e *Entry) Feedback() explore.Feedback {
	return explore.Feedback{
		C: explore.Candidate{
			Point:       faultspace.Point{Sub: e.Sub, Fault: append(faultspace.Fault(nil), e.Fault...)},
			MutatedAxis: e.MutatedAxis,
			ParentKey:   e.ParentKey,
		},
		Impact:  e.Impact,
		Fitness: e.Fitness,
	}
}

// fill sets every field of e from one record. Its slices are the
// record's own — a folded record's fault, plan, stack and block set are
// never written again — except Blocks, which the record's block set is
// sorted into, in blocks' storage; fill returns that storage, grown, for
// the next record. An empty fault is nil, as the journal has always
// written it, and the model backend is "", its implicit default: omitting
// it keeps model journal bytes identical to the pre-backend format, and
// Entry.Record restores it on read.
func (e *Entry) fill(run int, c *explore.Candidate, rec *core.Record, blocks []int) []int {
	o := &rec.Outcome
	*e = Entry{
		Seq: rec.ID, Run: run, Sub: rec.Point.Sub, Fault: rec.Point.Fault, Shard: rec.Shard,
		MutatedAxis: c.MutatedAxis, ParentKey: c.ParentKey,
		Scenario: rec.Scenario, TestID: rec.TestID, Plan: rec.Plan.Faults, Skipped: rec.Skipped,
		Backend: rec.Backend, ExitStatus: rec.ExitStatus, DurationNS: int64(rec.Duration),
		Injected: o.Injected, Failed: o.Failed, Crashed: o.Crashed, Hung: o.Hung, CrashID: o.CrashID, Stack: o.InjectionStack,
		NewBlocks: rec.NewBlocks, Impact: rec.Impact, Fitness: rec.Fitness, Relevance: rec.Relevance, Cluster: rec.Cluster,
	}
	if len(e.Fault) == 0 {
		e.Fault = nil
	}
	if e.Backend == backend.Model {
		e.Backend = ""
	}
	if len(o.Blocks) > 0 {
		blocks = blocks[:0]
		for b := range o.Blocks {
			blocks = append(blocks, b)
		}
		slices.Sort(blocks)
		e.Blocks = blocks
	}
	return blocks
}

// msg is one queued writer operation. A record is queued by value and
// the writer fills its one Entry from it, so the fold path pays a copy
// into the queue and nothing else.
type msg struct {
	rec  core.Record
	cand explore.Candidate
	run  int
	snap *core.SessionState
}

// Store is an open state directory. It implements core.Store.
type Store struct {
	dir        string
	meta       Meta
	run        int
	format     string
	tailResume bool

	journal *os.File
	bw      *bufio.Writer
	lock    *os.File

	// JSONL writer state: one persistent encoder over bw, so the hot
	// append path reuses the encoder's internal buffer instead of
	// allocating a fresh Marshal result per record.
	enc *json.Encoder

	// Writer goroutine state: the one entry every record is filled into
	// and the storage its sorted blocks take.
	entry  Entry
	blocks []int
	// Binary writer state, touched only by the writer goroutine: the
	// live segment's appender, and the offsets of the entries a snapshot
	// still to come may stand behind — offs[i] is entry offBase+i's.
	seg     *segWriter
	offs    []int64
	offBase int
	// snap writes the snapshots; legacyGone says the snapshot.json an
	// older build may have left has been removed.
	snap       snapWriter
	legacyGone bool

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []msg
	queued    int64
	processed int64
	closed    bool
	err       error

	wg sync.WaitGroup
}

// Open opens (creating if needed) a state directory with default
// Options and starts the background writer. See OpenOptions.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions opens (creating if needed) a state directory and starts
// the background writer. The directory is locked against concurrent
// writers (flock on unix; a dead process's lock is released by the
// kernel). Callers must Close the store to flush the journal tail and
// release the lock.
func OpenOptions(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, tailResume: opts.TailResume}
	s.cond = sync.NewCond(&s.mu)
	if err := s.lockDir(); err != nil {
		return nil, err
	}
	if err := s.open(opts); err != nil {
		s.unlockDir()
		return nil, err
	}
	s.wg.Add(1)
	go s.writerLoop()
	return s, nil
}

// open settles the locked directory's meta and format and opens its
// journal for append.
func (s *Store) open(opts Options) error {
	meta, err := ReadMeta(s.dir)
	if err == nil {
		s.format, err = resolveFormat(s.dir, meta, opts.Format)
	}
	switch {
	case err != nil:
		return err
	case meta == nil:
		meta = &Meta{Version: Version, Peer: opts.Peer, Peers: opts.Peers}
	case meta.Peers != opts.Peers || meta.Peer != opts.Peer:
		// Peer shard assignment: recorded on first open, immutable after —
		// a peer coordinator must only ever resume its own region of the
		// sharded space (the space-signature check would catch a cross-
		// region resume too, but this names the actual mistake).
		return fmt.Errorf("store: %s journals peer shard %d of %d, not %d of %d",
			s.dir, meta.Peer, meta.Peers, opts.Peer, opts.Peers)
	}
	meta.Journal = s.format
	s.meta = *meta
	size, err := s.openJournal()
	if err != nil {
		return err
	}
	s.bw = bufio.NewWriterSize(s.journal, 1<<16)
	if s.format == FormatJSONL {
		s.enc = json.NewEncoder(s.bw)
	} else {
		s.seg = newSegWriter(s.bw, size)
	}
	return nil
}

// openJournal opens the live journal for append and returns its size,
// cut first to its whole entries. A SIGKILL mid-append can leave a torn
// final entry; readers drop it, but appending after it would fuse the
// torn bytes with the next entry into permanent mid-file corruption (we
// hold the directory lock, so no other writer can race the repair).
func (s *Store) openJournal() (int64, error) {
	name := journalName
	if s.format == FormatBinary {
		name = binJournalName
	}
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	var end int64
	if s.format == FormatBinary {
		end, err = s.walkLive(f)
	} else {
		end, err = walkLines(f, nil)
	}
	fi, serr := f.Stat()
	if err = errors.Join(err, serr); err == nil && fi.Size() > end {
		err = f.Truncate(end)
	}
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("store: repair journal: %w", err)
	}
	s.journal = f
	return end, nil
}

// walkLive finds where the live segment ends, starting where the
// snapshot says the entry before it is, and notes the last entry there:
// one a snapshot may stand behind. Nothing past the landing is decoded
// but each entry's Seq, its payload's first varint.
func (s *Store) walkLive(f *os.File) (int64, error) {
	snap, file, _ := readSnapshot(s.dir, snapSeq)
	seq := 0
	if snap != nil {
		seq = snap.Seq
	}
	last, at := -1, int64(0)
	end, landed, err := walkSegment(f, file.pos, seq, func(off int64, payload []byte) error {
		if v, n := binary.Varint(payload); n > 0 {
			last, at = int(v), off
		}
		return nil
	})
	if landed && at == 0 {
		last, at = seq-1, file.pos
	}
	if last >= 0 {
		s.offs, s.offBase = []int64{at}, last
	}
	return end, err
}

// ReadMeta reads dir's meta.json: nil when there is none, an error when
// it does not parse or records a format version this build does not
// read.
func ReadMeta(dir string) (*Meta, error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	meta := new(Meta)
	if err := json.Unmarshal(raw, meta); err != nil {
		return nil, fmt.Errorf("store: corrupt %s: %w", metaName, err)
	}
	if meta.Version != Version {
		return nil, fmt.Errorf("store: %s has format version %d, this build reads %d", dir, meta.Version, Version)
	}
	return meta, nil
}

// resolveFormat decides a directory's journal format: what its meta
// records (with pre-format directories meaning JSONL), else what journal
// files are present, else what the caller asked for, else JSONL. An
// explicit request that contradicts the directory's existing format is
// an error.
func resolveFormat(dir string, meta *Meta, want string) (string, error) {
	switch want {
	case "", FormatJSONL, FormatBinary:
	default:
		return "", fmt.Errorf("store: unknown journal format %q (valid: %s, %s)", want, FormatJSONL, FormatBinary)
	}
	have := ""
	switch {
	case meta != nil && meta.Journal != "":
		if meta.Journal != FormatJSONL && meta.Journal != FormatBinary {
			return "", fmt.Errorf("store: %s records unknown journal format %q", dir, meta.Journal)
		}
		have = meta.Journal
	case meta != nil:
		have = FormatJSONL // pre-format directories only ever wrote JSONL
	default:
		_, errBin := os.Stat(filepath.Join(dir, binJournalName))
		_, errJSONL := os.Stat(filepath.Join(dir, journalName))
		switch {
		case errBin == nil && errJSONL == nil:
			return "", fmt.Errorf("store: %s holds both %s and %s and no meta.json to disambiguate", dir, binJournalName, journalName)
		case errBin == nil:
			have = FormatBinary
		case errJSONL == nil:
			have = FormatJSONL
		}
	}
	if have != "" {
		if want != "" && want != have {
			return "", fmt.Errorf("store: %s already journals in %q format; existing directories keep their format (use a new --state-dir for %q)",
				dir, have, want)
		}
		return have, nil
	}
	if want == "" {
		return FormatJSONL, nil
	}
	return want, nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// Meta returns a copy of the directory metadata.
func (s *Store) Meta() Meta {
	m := s.meta
	m.Stamps = append([]string(nil), s.meta.Stamps...)
	return m
}

// Begin registers a new run against the directory, verifying that the
// target and fault space match what previous runs journaled (resuming a
// journal against a different space would corrupt the session). stamp is
// the run's timestamp-from-config; empty selects the current wall clock.
func (s *Store) Begin(target, spaceSig, stamp string) error {
	if s.meta.Runs > 0 {
		if s.meta.SpaceSignature != spaceSig {
			return fmt.Errorf("store: %s was journaled for a different fault space\n  have %s\n  want %s",
				s.dir, spaceSig, s.meta.SpaceSignature)
		}
		if s.meta.Target != target {
			return fmt.Errorf("store: %s was journaled for target %q, not %q", s.dir, s.meta.Target, target)
		}
	} else {
		s.meta.Target = target
		s.meta.SpaceSignature = spaceSig
	}
	if stamp == "" {
		stamp = time.Now().UTC().Format(time.RFC3339)
	}
	s.run = s.meta.Runs
	s.meta.Runs++
	s.meta.Stamps = append(s.meta.Stamps, stamp)
	return writeAtomicFile(s.dir, metaName, writeBytes(mustJSON(&s.meta)))
}

// JournalRecord implements core.Store: enqueue only, never IO.
func (s *Store) JournalRecord(c explore.Candidate, rec core.Record) {
	s.enqueue(msg{rec: rec, cand: c, run: s.run})
}

// SnapshotSession implements core.Store: enqueue only, never IO.
func (s *Store) SnapshotSession(st *core.SessionState) {
	s.enqueue(msg{snap: st})
}

func (s *Store) enqueue(m msg) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.queue = append(s.queue, m)
	s.queued++
	s.mu.Unlock()
	s.cond.Signal()
}

// Sync blocks until everything enqueued before the call has been written
// and flushed, returning the first writer error if any.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.queued
	for s.processed < target && s.err == nil {
		s.cond.Wait()
	}
	return s.err
}

// Close drains the queue, flushes and closes the journal, and releases
// the directory lock. The store is unusable afterwards; further
// JournalRecord calls are dropped.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		defer s.mu.Unlock()
		return s.err
	}
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	s.setErr(s.bw.Flush())
	s.setErr(s.journal.Close())
	s.unlockDir()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// writerLoop drains the queue by swapping it with a spare slice: the
// enqueuers append to one while the writer walks the other, and the
// walked one, cleared so it pins no record or state, is the next spare.
func (s *Store) writerLoop() {
	defer s.wg.Done()
	var spare []msg
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = spare
		s.mu.Unlock()
		if len(batch) == 0 {
			s.cond.Broadcast()
			return // closed and drained
		}
		for i := range batch {
			s.process(&batch[i])
		}
		clear(batch)
		spare = batch[:0]
		// One flush per drained batch: syscalls amortize under load,
		// the journal tail is promptly durable when idle.
		s.setErr(s.bw.Flush())
		s.mu.Lock()
		s.processed += int64(len(batch))
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

func (s *Store) process(m *msg) {
	switch {
	case m.snap == nil:
		e := &s.entry
		s.blocks = e.fill(m.run, &m.cand, &m.rec, s.blocks)
		if s.format == FormatBinary {
			s.note(e.Seq, s.seg.append(e))
			return
		}
		// The persistent encoder produces exactly Marshal's bytes plus
		// the trailing newline, but reuses its encode buffer across
		// records instead of allocating a fresh one per append.
		s.setErr(s.enc.Encode(e))
	default:
		// The journal must never lag a snapshot that references it.
		if err := s.bw.Flush(); err != nil {
			s.setErr(err)
			return
		}
		st, pos := m.snap, s.place(m.snap.Seq)
		if err := writeAtomicFile(s.dir, snapshotName, func(w io.Writer) error { return s.snap.write(w, st, pos) }); err != nil {
			s.setErr(err)
			return
		}
		// The snapshot an older build left is now the stale one.
		if !s.legacyGone {
			s.legacyGone = true
			if err := os.Remove(filepath.Join(s.dir, legacySnapshotName)); err != nil && !os.IsNotExist(err) {
				s.setErr(err)
			}
		}
	}
}

// note remembers that entry seq landed at offset off of the live
// segment. Entries arrive in Seq order; one that does not continue the
// run starts a new one.
func (s *Store) note(seq int, off int64) {
	if len(s.offs) > 0 && seq != s.offBase+len(s.offs) {
		s.offs = s.offs[:0]
	}
	if len(s.offs) == 0 {
		s.offBase = seq
	}
	s.offs = append(s.offs, off)
}

// place returns the live-segment offset of entry seq-1 for a snapshot at
// seq, 0 when the writer never saw that entry, and forgets the entries
// before it: snapshots arrive in Seq order, though entries past one may
// have been written before it.
func (s *Store) place(seq int) int64 {
	i := seq - 1 - s.offBase
	if i < 0 || i >= len(s.offs) {
		return 0
	}
	pos := s.offs[i]
	s.offs, s.offBase = s.offs[:copy(s.offs, s.offs[i:])], seq-1
	return pos
}

func (s *Store) setErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

func mustJSON(v any) []byte {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		panic(err) // Meta marshalling cannot fail
	}
	return raw
}

// ReadJournal loads the entries of a journal file (or of the journal
// inside a state directory, either format). Both formats end the same
// way: bytes that are not whole — past the last newline, or a frame cut
// short or failing its crc — are the torn tail a crash mid-append
// leaves, dropped here and truncated by the next Open; a whole line or
// frame whose entry does not decode is corruption, and the read refuses
// naming its line or offset. Duplicate scenario keys keep the first
// occurrence.
func ReadJournal(path string) ([]Entry, error) {
	switch fi, err := os.Stat(path); {
	case err == nil && fi.IsDir():
		if _, err := os.Stat(filepath.Join(path, binJournalName)); err == nil {
			return readBinaryDir(path)
		}
		path = filepath.Join(path, journalName)
	case sniffBinary(path):
		entries, err := readSegment(path)
		if err != nil {
			return nil, err
		}
		return dedupEntries(entries), nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var entries []Entry
	_, err = walkLines(f, func(no int, line []byte) error {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("corrupt journal %s at line %d: %w", path, no, err)
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return dedupEntries(entries), nil
}

// walkLines walks the whole lines of a JSONL journal — what ends in a
// newline; the bytes past the last one are the torn tail — and returns
// where they end. each, when not nil, is handed every line that is not
// blank, numbered from 1; its error ends the walk.
func walkLines(r io.Reader, each func(no int, line []byte) error) (end int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var long []byte
	for no := 1; ; no++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err == io.EOF {
			return end, nil
		}
		if err != nil {
			return end, err
		}
		end += int64(len(line))
		if each != nil && len(bytes.TrimSpace(line)) > 0 {
			if err := each(no, line); err != nil {
				return end, err
			}
		}
	}
}

// sniffBinary reports whether the file at path starts with the binary
// segment magic.
func sniffBinary(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == segMagic
}

// readBinaryDir loads a binary directory's full journal: the compacted
// archive (when one exists) followed by the live segment. The keep-first
// dedup makes an interrupted compaction harmless — entries present in
// both segments read once, from the archive.
func readBinaryDir(dir string) ([]Entry, error) {
	arch, err := readSegment(filepath.Join(dir, archiveName))
	if err != nil {
		return nil, err
	}
	live, err := readSegment(filepath.Join(dir, binJournalName))
	if err != nil {
		return nil, err
	}
	return dedupEntries(append(arch, live...)), nil
}

// dedupEntries keeps the first occurrence of each scenario key — the
// same rule the JSONL reader applies line by line.
func dedupEntries(entries []Entry) []Entry {
	out := entries[:0]
	seen := make(map[string]bool, len(entries))
	for i := range entries {
		if key := entries[i].Key(); !seen[key] {
			seen[key] = true
			out = append(out, entries[i])
		}
	}
	return out
}

// LoadEntries reads the store's journal.
func (s *Store) LoadEntries() ([]Entry, error) {
	if s.format == FormatBinary {
		return readBinaryDir(s.dir)
	}
	return ReadJournal(filepath.Join(s.dir, journalName))
}

// LoadSnapshot reads the latest session snapshot; (nil, nil) when none
// exists, an error when one exists and does not decode.
func (s *Store) LoadSnapshot() (*core.SessionState, error) {
	st, _, err := readSnapshot(s.dir, snapFull)
	return st, err
}

// Recover rebuilds a core.Restore from the directory's journal and
// snapshot: records and explorer-tail feedback from the journal, cluster
// and search state from the snapshot when one is usable, and the
// executed-key set of it all, built here once. It returns nil when the
// directory holds no prior state. A snapshot that is torn or corrupt
// never fails the recovery: the journal alone rebuilds everything, and
// Restore.Info says why it had to.
func (s *Store) Recover() (*core.Restore, error) {
	began := time.Now()
	snap, file, err := readSnapshot(s.dir, snapFull)
	info := core.ResumeInfo{Path: "full-journal", SnapshotNS: int64(time.Since(began))}
	began = time.Now()
	switch {
	case err != nil:
		info.Reason = err.Error()
	case !s.tailResume:
		info.Reason = "tail resume not requested"
	default:
		// Binary directories with a self-describing snapshot resume in
		// O(snapshot + tail); anything else takes the full-journal path
		// below, which handles every degenerate case.
		r, why := s.recoverTail(snap, file.pos)
		if r != nil {
			info.Path, info.Entries, info.JournalNS = "tail", len(r.Records), int64(time.Since(began))
			r.Info = info
			return r, nil
		}
		info.Reason = why
	}
	entries, err := s.LoadEntries()
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 && snap == nil {
		return nil, nil
	}
	// The journal is the source of truth. A snapshot that claims more
	// records than the journal holds (possible only if journal bytes
	// were lost after a snapshot flush, e.g. manual truncation) or fewer
	// than none, or that is missing its cluster sets (hand-edited or
	// partially decoded), cannot be trusted; rebuild from the journal
	// alone.
	contiguous := true
	for i := range entries {
		if entries[i].Seq != i {
			contiguous = false
			entries[i].Seq = i
		}
	}
	if snap != nil && (snap.Seq < 0 || snap.Seq > len(entries) || !contiguous ||
		snap.AllStacks == nil || snap.FailClusters == nil || snap.CrashClusters == nil) {
		snap = nil
	}
	r := &core.Restore{State: snap}
	r.Records = make([]core.Record, len(entries))
	r.Seen = &explore.KeySet{}
	for i := range entries {
		r.Records[i] = entries[i].Record()
		r.Seen.Add(entries[i].Key())
	}
	// Prior wall clock is known only as of the last snapshot; runtime
	// between it and a crash is not recoverable (the journal carries no
	// per-entry clock by design), so cumulative Elapsed under-reports by
	// at most one snapshot interval per crash.
	tailFrom := 0
	if snap != nil {
		tailFrom = snap.Seq
		r.Elapsed = snap.Elapsed
	}
	if tailFrom < len(entries) {
		r.Tail = make([]explore.Feedback, 0, len(entries)-tailFrom)
		for i := tailFrom; i < len(entries); i++ {
			r.Tail = append(r.Tail, entries[i].Feedback())
		}
	}
	info.Entries, info.JournalNS = len(entries), int64(time.Since(began))
	r.Info = info
	return r, nil
}

// tailOf returns the journal entries past snap when a binary directory
// can resume from the snapshot and that tail alone — the snapshot
// self-describes entries [0, Seq) via its aggregates, and the tail is
// read from pos, the offset the snapshot recorded, when the entry before
// it is there — or else the reason it cannot.
func tailOf(dir, format string, meta Meta, snap *core.SessionState, pos int64) ([]Entry, string) {
	switch {
	case format != FormatBinary:
		return nil, "the " + format + " journal has no index to seek by"
	case snap == nil || snap.Seq <= 0:
		return nil, "no snapshot"
	case snap.Aggregates == nil || snap.AllStacks == nil || snap.FailClusters == nil || snap.CrashClusters == nil:
		return nil, "snapshot does not describe the journal before it"
	case meta.CompactedSeq > snap.Seq:
		return nil, "archive reaches past the snapshot"
	}
	entries, _, lastSeq, err := readSegmentTail(filepath.Join(dir, binJournalName), pos, snap.Seq)
	if err != nil {
		return nil, err.Error()
	}
	// The journal (live segment, or archive when the live tail is empty)
	// must reach the snapshot: a snapshot ahead of the journal means
	// journal bytes were lost, which the full path detects and handles
	// by discarding the snapshot.
	if end := max(lastSeq+1, meta.CompactedSeq); end < snap.Seq {
		return nil, fmt.Sprintf("snapshot at %d is ahead of the journal's %d entries", snap.Seq, end)
	}
	for i := range entries {
		if entries[i].Seq != snap.Seq+i {
			return nil, "journal tail is not contiguous from the snapshot"
		}
	}
	return entries, ""
}

// recoverTail builds a tail-only Restore, or says why it cannot. The
// executed-key set is the snapshot's list extended by the tail's keys and
// indexed once, in the arena the list was decoded into — so every list of
// the snapshot that repeats it is a prefix of the set — and the build is
// also the check that no key repeats (the full path's dedup semantics
// apply otherwise).
func (s *Store) recoverTail(snap *core.SessionState, pos int64) (*core.Restore, string) {
	entries, why := tailOf(s.dir, s.format, s.meta, snap, pos)
	if why != "" {
		return nil, why
	}
	r := &core.Restore{State: snap, Base: snap.Seq, Elapsed: snap.Elapsed}
	r.Records = make([]core.Record, len(entries))
	r.Tail = make([]explore.Feedback, len(entries))
	keys := make([]string, len(entries))
	for i := range entries {
		r.Records[i] = entries[i].Record()
		r.Tail[i] = entries[i].Feedback()
		keys[i] = entries[i].Key()
	}
	var ok bool
	if r.Seen, ok = snap.Aggregates.SeenKeys.Extend(keys); !ok {
		return nil, "journal tail repeats an executed key"
	}
	return r, ""
}

// Attach wires the store into an exploration config: it registers the
// run (verifying target/space compatibility), loads prior scenario keys
// into the novelty filter, recovers the session for continuation —
// dropping the explorer search state unless cfg.Resume asks for it — and
// installs the store as the engine's persistence seam. It is the one
// call sites need between store.Open and core.NewEngine.
func (s *Store) Attach(cfg *core.Config) error {
	target := ""
	switch {
	case cfg.Target != nil:
		target = cfg.Target.Name
	case cfg.Command != nil:
		// Process sessions are identified by their command spec: runs
		// sharing a state directory must drive the same fixture.
		target = cfg.Command.Target()
	}
	return s.AttachNamed(cfg, target)
}

// AttachNamed is Attach with the target name supplied explicitly, for
// sessions whose engine has no local Target — distributed coordinators,
// where only the remote managers load the system under test.
func (s *Store) AttachNamed(cfg *core.Config, target string) error {
	sig := ""
	if cfg.Space != nil {
		sig = faultspace.Signature(cfg.Space)
	}
	if err := s.Begin(target, sig, cfg.StateStamp); err != nil {
		return err
	}
	r, err := s.Recover()
	if err != nil {
		return err
	}
	if r != nil {
		if !cfg.Resume {
			// Continuation without --resume: keep the cumulative records
			// and clusters, but give the search a fresh start — prior
			// points are excluded by the novelty filter, not replayed
			// into a new explorer's state.
			r.Tail = nil
			if r.State != nil {
				r.State.Explorer = nil
			}
		}
		cfg.Restore, cfg.Seen = r, r.Seen
	}
	cfg.Store = s
	return nil
}

package store

// Read-only state-directory inspection backing `afex stats`: what
// format a directory journals in, how many entries it holds and where
// (archive vs live segment), and how big the resume tail past the
// latest snapshot is — the number that decides whether the next
// --resume is O(tail) or O(run).

import (
	"fmt"
	"os"
	"path/filepath"
)

// Stats summarizes a state directory.
type Stats struct {
	// Format is the directory's journal format (FormatJSONL or
	// FormatBinary).
	Format string `json:"format"`
	// Target and Runs come from meta.json.
	Target string `json:"target,omitempty"`
	Runs   int    `json:"runs"`
	// Peer/Peers are the directory's multi-coordinator shard assignment
	// (region Peer of Peers); zero for single-coordinator directories.
	Peer  int `json:"peer,omitempty"`
	Peers int `json:"peers,omitempty"`
	// Entries counts journaled entries across all segments;
	// ArchivedEntries and LiveEntries split it for binary directories
	// (JSONL has a single segment, all live).
	Entries         int `json:"entries"`
	ArchivedEntries int `json:"archivedEntries"`
	LiveEntries     int `json:"liveEntries"`
	// Segments is the number of journal segment files present.
	Segments int `json:"segments"`
	// HasSnapshot/SnapshotSeq/SnapshotBytes describe the latest
	// snapshot (its journal sequence and file size) and SnapshotFormat
	// its shape: SnapshotFramed, SnapshotFramedJSON for a framed file of
	// the builds that kept the cluster sets in its JSON, SnapshotJSON for
	// a snapshot.json. The bytes split into the state frame, the sets
	// frame and the key frames (all state for the JSON shape).
	// SnapshotKeys is the executed keys it lists, SnapshotKeyLists how
	// many lists of keys it holds (the executed keys', the explorers'
	// histories) and SnapshotKeyRefs how many of those repeat an earlier
	// list and are written as a reference to it. CompactedSeq is the
	// archive watermark.
	HasSnapshot        bool   `json:"hasSnapshot"`
	SnapshotSeq        int    `json:"snapshotSeq"`
	SnapshotBytes      int64  `json:"snapshotBytes"`
	SnapshotFormat     string `json:"snapshotFormat,omitempty"`
	SnapshotStateBytes int64  `json:"snapshotStateBytes"`
	SnapshotSetsBytes  int64  `json:"snapshotSetsBytes"`
	SnapshotKeysBytes  int64  `json:"snapshotKeysBytes"`
	SnapshotKeys       int    `json:"snapshotKeys"`
	SnapshotKeyLists   int    `json:"snapshotKeyLists"`
	SnapshotKeyRefs    int    `json:"snapshotKeyRefs"`
	CompactedSeq       int    `json:"compactedSeq"`
	// TailEntries is the resume-tail size: entries past the snapshot,
	// the amount of journal a tail resume must materialize. ResumePath
	// says whether the next --resume can get by on that: "tail", or
	// "full-journal" and why.
	TailEntries int    `json:"tailEntries"`
	ResumePath  string `json:"resumePath"`
	// JournalBytes and ArchiveBytes are the segment file sizes.
	JournalBytes int64 `json:"journalBytes"`
	ArchiveBytes int64 `json:"archiveBytes"`
}

// ReadStats inspects a state directory without locking it (read-only —
// it is safe against a live writer, though counts may trail by the
// writer's buffer).
func ReadStats(dir string) (*Stats, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("store: %s is not a state directory", dir)
	}
	meta, err := ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	format, err := resolveFormat(dir, meta, "")
	if err != nil {
		return nil, err
	}
	if meta == nil {
		meta = &Meta{}
	}
	st := &Stats{
		Format:       format,
		Target:       meta.Target,
		Runs:         meta.Runs,
		Peer:         meta.Peer,
		Peers:        meta.Peers,
		CompactedSeq: meta.CompactedSeq,
	}
	if err := st.scan(dir); err != nil {
		return nil, err
	}
	// Snapshot + resume tail. A snapshot at seq 0 describes nothing. The
	// key counts come from the frame headers: nothing here needs the keys.
	snap, file, err := readSnapshot(dir, snapShape)
	st.SnapshotBytes = file.size
	why := "no snapshot"
	if err != nil {
		why = err.Error()
	} else if snap != nil && snap.Seq > 0 {
		st.HasSnapshot, st.SnapshotSeq, st.SnapshotFormat = true, snap.Seq, file.format
		st.SnapshotStateBytes, st.SnapshotSetsBytes, st.SnapshotKeysBytes = file.state, file.sets, file.keys
		st.SnapshotKeyLists, st.SnapshotKeyRefs = len(file.keyCounts), file.refs
		if snap.Aggregates != nil {
			st.SnapshotKeys = file.keyCounts[0] // keyLists lists the aggregates' first
		}
		_, why = tailOf(dir, format, *meta, snap, file.pos)
	}
	st.TailEntries = max(st.Entries-st.SnapshotSeq, 0)
	st.ResumePath = "tail"
	if why != "" {
		st.ResumePath = "full-journal: " + why
	}
	return st, nil
}

// JournalPath resolves a state directory's live journal file —
// journal.jsonl or journal.afexj depending on the directory's recorded
// format — without locking the directory. It is how artifact readers
// (the control plane's journal endpoint) serve the journal bytes.
func JournalPath(dir string) (string, error) {
	meta, err := ReadMeta(dir)
	if err != nil {
		return "", err
	}
	format, err := resolveFormat(dir, meta, "")
	if err != nil {
		return "", err
	}
	name := journalName
	if format == FormatBinary {
		name = binJournalName
	}
	return filepath.Join(dir, name), nil
}

// scan counts the entries of each journal segment present without
// decoding one: what counts is what the end rule keeps.
func (st *Stats) scan(dir string) error {
	type segment struct {
		name    string
		entries *int
		bytes   *int64
	}
	segs := []segment{{journalName, &st.LiveEntries, &st.JournalBytes}}
	if st.Format == FormatBinary {
		segs = []segment{{archiveName, &st.ArchivedEntries, &st.ArchiveBytes}, {binJournalName, &st.LiveEntries, &st.JournalBytes}}
	}
	for _, seg := range segs {
		f, err := os.Open(filepath.Join(dir, seg.name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		fi, err := f.Stat()
		switch {
		case err != nil:
		case st.Format == FormatBinary:
			_, _, err = walkSegment(f, 0, 0, func(int64, []byte) error { *seg.entries++; return nil })
		default:
			_, err = walkLines(f, func(int, []byte) error { *seg.entries++; return nil })
		}
		f.Close()
		if err != nil {
			return err
		}
		st.Segments++
		*seg.bytes = fi.Size()
	}
	st.Entries = st.ArchivedEntries + st.LiveEntries
	return nil
}

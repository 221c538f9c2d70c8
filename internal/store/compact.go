package store

// Journal compaction for binary state directories: the prefix a
// snapshot already covers is moved into archive.afexj and the live
// segment is rewritten to hold only the tail, keeping the resume path
// O(snapshot + tail) no matter how long the session has lived. The
// archive is append-only and full reads (replay, stats, non-tail
// resume) concatenate archive + live with keep-first key dedup, so a
// crash at ANY point mid-compaction leaves a directory that reads
// identically: overlap dedups away, and a re-run skips entries the
// archive already holds. Both writes go through the segment appender the
// store's writer uses (segWriter, binary.go). The rewrite moves every
// live frame, so the position the latest snapshot recorded no longer
// holds its entry: the next tail resume walks the rewritten segment,
// which is the tail, and the next snapshot records a position again.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Compact folds the journaled prefix covered by the latest snapshot
// into the archive segment and rewrites the live journal to the tail. The directory must be closed — Compact takes the
// same single-writer lock a Store holds — and must use the binary
// journal format. It returns the number of entries moved to the
// archive; (0, nil) when there is nothing new to compact.
func Compact(dir string) (int, error) {
	s := &Store{dir: dir}
	if err := s.lockDir(); err != nil {
		return 0, err
	}
	defer s.unlockDir()

	raw, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return 0, fmt.Errorf("store: corrupt %s: %w", metaName, err)
	}
	if meta.Version != Version {
		return 0, fmt.Errorf("store: %s has format version %d, this build reads %d", dir, meta.Version, Version)
	}
	if format := meta.Journal; format != FormatBinary {
		if format == "" {
			format = FormatJSONL
		}
		return 0, fmt.Errorf("store: compaction requires the %q journal format; %s journals in %q", FormatBinary, dir, format)
	}

	// No snapshot, or an unreadable one: nothing is provably covered.
	snap, file, _ := readSnapshot(dir, snapSeq)
	if snap == nil || snap.Seq <= meta.CompactedSeq {
		return 0, nil
	}

	livePath := filepath.Join(dir, binJournalName)
	archPath := filepath.Join(dir, archiveName)
	if _, err := repairSegment(livePath, file.pos, snap.Seq); err != nil {
		return 0, fmt.Errorf("store: repair journal: %w", err)
	}
	live, err := readSegment(livePath)
	if err != nil {
		return 0, err
	}
	arch, err := readSegment(archPath)
	if err != nil {
		return 0, err
	}
	// The archive's own content, not meta's watermark, decides what to
	// append: a crash after a prior append but before the meta rewrite
	// must not duplicate frames on the re-run.
	archEnd := 0
	if len(arch) > 0 {
		archEnd = arch[len(arch)-1].Seq + 1
	}

	moved, err := appendArchive(archPath, live, archEnd, snap.Seq)
	if err != nil {
		return 0, err
	}
	if err := rewriteLive(livePath, live, snap.Seq); err != nil {
		return 0, err
	}
	meta.CompactedSeq = snap.Seq
	if err := writeAtomicFile(dir, metaName, writeBytes(mustJSON(&meta))); err != nil {
		return 0, err
	}
	return moved, nil
}

// appendArchive appends live entries with Seq in [archEnd, upto) to the
// archive segment, creating it if needed, and syncs before returning —
// the live rewrite may be about to drop the only other copy.
func appendArchive(path string, live []Entry, archEnd, upto int) (int, error) {
	moved := 0
	for i := range live {
		if live[i].Seq >= archEnd && live[i].Seq < upto {
			moved++
		}
	}
	if moved == 0 {
		return 0, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := newSegWriter(bw, fi.Size()).appendRange(live, archEnd, upto); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return moved, nil
}

// rewriteLive replaces the live segment with the entries at Seq >= from,
// through a temp file + rename.
func rewriteLive(livePath string, live []Entry, from int) error {
	var seg bytes.Buffer
	newSegWriter(&seg, 0).appendRange(live, from, math.MaxInt)
	return writeAtomicFile(filepath.Dir(livePath), filepath.Base(livePath), writeBytes(seg.Bytes()))
}

// writeAtomicFile replaces dir/name with what fill writes, through a temp
// file and a rename, so a reader never sees a partial file: when fill, a
// write or the close fails, the temp file is removed and dir/name is left
// as it was.
func writeAtomicFile(dir, name string, fill func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		err = errors.Join(fill(f), f.Close())
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// writeBytes is the fill of a file whose bytes are all in hand.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error { _, err := w.Write(data); return err }
}

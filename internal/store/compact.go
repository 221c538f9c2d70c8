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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Compact folds the journaled prefix covered by the latest snapshot
// into the archive segment and rewrites the live journal to the tail.
// The directory must be closed — Compact takes the same single-writer
// lock a Store holds — and must use the binary journal format. It
// returns the number of entries moved to the archive; (0, nil) when
// there is nothing new to compact.
func Compact(dir string) (int, error) {
	s := &Store{dir: dir}
	if err := s.lockDir(); err != nil {
		return 0, err
	}
	defer s.unlockDir()

	meta, err := ReadMeta(dir)
	if err == nil && meta == nil {
		err = fmt.Errorf("store: %s holds no %s", dir, metaName)
	}
	if err != nil {
		return 0, err
	}
	if format := meta.Journal; format != FormatBinary {
		if format == "" {
			format = FormatJSONL
		}
		return 0, fmt.Errorf("store: compaction requires the %q journal format; %s journals in %q", FormatBinary, dir, format)
	}

	// No snapshot, or an unreadable one: nothing is provably covered.
	snap, _, _ := readSnapshot(dir, snapSeq)
	if snap == nil || snap.Seq <= meta.CompactedSeq {
		return 0, nil
	}
	live, err := readSegment(filepath.Join(dir, binJournalName))
	if err != nil {
		return 0, err
	}
	moved, err := appendArchive(filepath.Join(dir, archiveName), live, snap.Seq)
	if err != nil {
		return 0, err
	}
	err = writeAtomicFile(dir, binJournalName, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		newSegWriter(bw, 0).appendRange(live, snap.Seq, math.MaxInt)
		return bw.Flush()
	})
	if err != nil {
		return 0, err
	}
	meta.CompactedSeq = snap.Seq
	if err := writeAtomicFile(dir, metaName, writeBytes(mustJSON(meta))); err != nil {
		return 0, err
	}
	return moved, nil
}

// appendArchive appends the live entries before upto that the archive
// does not hold yet, and syncs before returning — the live rewrite may
// be about to drop the only other copy. The archive's own content, not
// meta's watermark, decides what it holds, so a re-run after a crash
// between this append and the meta rewrite duplicates nothing; and like
// the live segment on open, it is cut to its whole frames first, so a
// torn tail a crash mid-append left is never appended after.
func appendArchive(path string, live []Entry, upto int) (int, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	held := 0 // the Seq past the archive's last entry
	end, _, err := walkSegment(f, 0, 0, func(_ int64, payload []byte) error {
		if seq, n := binary.Varint(payload); n > 0 {
			held = int(seq) + 1
		}
		return nil
	})
	if err == nil {
		err = f.Truncate(end)
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	moved := newSegWriter(bw, end).appendRange(live, held, upto)
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return moved, errors.Join(f.Sync(), f.Close())
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

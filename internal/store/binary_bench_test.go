package store

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkSegmentTailSeek isolates the journal term of a tail resume:
// starting at the position the snapshot recorded and decoding only the
// frames past it. The journal doubles from 100k to 200k entries while
// the tail stays 512 — flat ns/op across the pair, and exactly the tail
// decoded, is the acceptance property (the remaining resume cost,
// decoding the snapshot's aggregates, is O(snapshot) and independent of
// this seek).
func BenchmarkSegmentTailSeek(b *testing.B) {
	const tail = 512
	for _, n := range []int{100 << 10, 200 << 10} {
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			dir := b.TempDir()
			journalWithSnapshot(b, dir, Options{Format: FormatBinary}, n, n-tail)
			journal := filepath.Join(dir, binJournalName)
			from, pos := snapshotAt(b, dir)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries, scanned, _, err := readSegmentTail(journal, pos, from)
				if err != nil || len(entries) != tail || scanned != tail {
					b.Fatalf("tail seek: %v, entries=%d decoded=%d", err, len(entries), scanned)
				}
				b.ReportMetric(float64(scanned), "decoded")
			}
		})
	}
}

// BenchmarkEntryCodec measures the per-entry encode/decode pair of the
// binary segment format — the bytes the store pays per fold instead of
// a JSON marshal.
func BenchmarkEntryCodec(b *testing.B) {
	c, rec := testRecord(7)
	en := entryFrom(7, c, rec)
	var enc segEnc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.encodeEntry(en)
		if _, err := decodeEntry(enc.bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

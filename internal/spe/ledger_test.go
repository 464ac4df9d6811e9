package spe

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// ledgerBlock is the framed ledger block holding recs, as appendSegment
// writes it.
func ledgerBlock(recs []SinkRecord) []byte {
	return binio.SealFrame(appendLedgerBlock(make([]byte, binio.FrameHeadroom), recs))
}

// decodeLedgerBytes decodes a run of whole ledger blocks.
func decodeLedgerBytes(t *testing.T, b []byte) []SinkRecord {
	t.Helper()
	var out []SinkRecord
	for len(b) > 0 {
		n, err := decodeLedgerBlock(b, func(ts int64, key, value []byte) {
			out = append(out, SinkRecord{TS: ts, Key: key, Value: value})
		})
		if err != nil {
			t.Fatal(err)
		}
		b = b[n:]
	}
	return out
}

// writeJobDir lays out a job directory holding ledger as its SINK.log and
// a JOB record committing its first committed bytes.
func writeJobDir(t *testing.T, ledger []byte, committed int) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ledgerName), ledger, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := encodeJobMeta(JobMeta{Gen: 1, LedgerLen: int64(committed), StagePars: []int64{1}})
	if err := faultfs.WriteFileAtomic(faultfs.OS, filepath.Join(dir, jobMetaName), rec); err != nil {
		t.Fatal(err)
	}
	return dir
}

var sampleLedger = [][]SinkRecord{
	{
		{TS: -5, Key: []byte("a"), Value: []byte("1")},
		{TS: 0, Key: []byte("a"), Value: []byte("2")},
		{TS: 0, Key: []byte("b"), Value: nil},
		{TS: 1 << 40, Key: nil, Value: []byte("big")},
	},
	{
		{TS: 1<<40 + 3, Key: []byte("c"), Value: bytes.Repeat([]byte("v"), 300)},
	},
}

// TestLedgerBlockRoundTrip: blocks of sorted records decode back to the
// same records; ReadLedger returns every committed block and stops at the
// JOB record's LedgerLen, ignoring a torn block past it; a LedgerLen that
// ends mid-block, or a block whose count disagrees with its records, is a
// typed FrameError.
func TestLedgerBlockRoundTrip(t *testing.T) {
	var ledger []byte
	var want []SinkRecord
	for _, recs := range sampleLedger {
		ledger = append(ledger, ledgerBlock(recs)...)
		want = append(want, recs...)
	}
	if got := decodeLedgerBytes(t, ledger); !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("round trip: %v, want %v", got, want)
	}

	next := ledgerBlock([]SinkRecord{{TS: 1<<40 + 9, Key: []byte("d"), Value: []byte("4")}})
	torn := append(append([]byte(nil), ledger...), next[:len(next)-2]...)
	got, err := ReadLedger(nil, writeJobDir(t, torn, len(ledger)))
	if err != nil || !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("ReadLedger over a torn uncommitted block: %v, %v; want the committed records", got, err)
	}

	var fe *binio.FrameError
	if _, err := ReadLedger(nil, writeJobDir(t, torn, len(torn))); !errors.As(err, &fe) {
		t.Fatalf("committed prefix ending mid-block: %v, want a FrameError", err)
	}
	if _, err := ReadLedger(nil, writeJobDir(t, ledger, len(ledger)+1)); !errors.As(err, &fe) {
		t.Fatalf("ledger shorter than its committed length: %v, want a FrameError", err)
	}
	payload := appendLedgerBlock(nil, sampleLedger[0])
	payload[0]++ // the count names one record more than the block holds
	bad := binio.AppendRecord(nil, payload)
	if _, err := ReadLedger(nil, writeJobDir(t, bad, len(bad))); !errors.As(err, &fe) {
		t.Fatalf("block with a wrong record count: %v, want a FrameError", err)
	}
	if recs, err := ReadLedger(nil, t.TempDir()); recs != nil || err != nil {
		t.Fatalf("directory without a JOB record: %v, %v; want nothing committed", recs, err)
	}
}

// normalize maps nil keys and values to empty ones, as decoding does.
func normalize(recs []SinkRecord) []SinkRecord {
	out := make([]SinkRecord, len(recs))
	for i, r := range recs {
		out[i] = SinkRecord{TS: r.TS, Key: append([]byte{}, r.Key...), Value: append([]byte{}, r.Value...)}
	}
	return out
}

// TestReadLedgerIgnoresUncommittedBlock crashes the filesystem after a
// commit's ledger block is fsynced and before its JOB rename: the block
// is on disk past LedgerLen, and ReadLedger must return exactly the
// committed prefix ReadLedgerBytes returns, decoded.
func TestReadLedgerIgnoresUncommittedBlock(t *testing.T) {
	tuples := crashTuples(400)
	pat := crashPatterns()[0] // AAR
	base := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS)
	job := &Job{
		Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), inj, 1<<10),
		Source:          NewSliceSource(tuples),
		Dir:             filepath.Join(base, "job"),
		FS:              inj,
		CheckpointEvery: 61,
	}
	inj.SetRule(faultfs.Rule{Op: faultfs.OpRename, PathContains: jobMetaName, Nth: 3, Crash: true})
	if _, err := job.Run(); err == nil || !inj.Fired() {
		t.Fatalf("run: %v, fired %v; want the third JOB rename to crash", err, inj.Fired())
	}
	inj.Reset()
	meta, err := ReadJobMeta(nil, job.Dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(job.Dir, ledgerName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) <= meta.LedgerLen {
		t.Fatalf("ledger is %d bytes, JOB commits %d: the crashed commit left no block behind", len(raw), meta.LedgerLen)
	}
	committed, err := ReadLedgerBytes(nil, job.Dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadLedger(nil, job.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := decodeLedgerBytes(t, committed); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadLedger returned %d records, the committed prefix holds %d", len(got), len(want))
	}
}

// FuzzDecodeLedgerBlock feeds arbitrary bytes to the ledger block decoder
// behind ReadLedger and VerifyJobDir: it must never panic, fail only with
// a FrameError, consume a whole block within the input when it accepts,
// and an accepted block must re-encode to exactly the bytes it took.
func FuzzDecodeLedgerBlock(f *testing.F) {
	for _, recs := range sampleLedger {
		f.Add(ledgerBlock(recs))
	}
	f.Add(ledgerBlock(nil))
	f.Add([]byte{})
	block := ledgerBlock(sampleLedger[0])
	f.Add(block[:len(block)-3])
	f.Add(make([]byte, 64)) // a zeroed page
	// A count of 2^40 records in a valid frame.
	f.Add(binio.AppendRecord(nil, binio.PutUvarint(nil, 1<<40)))
	f.Fuzz(func(t *testing.T, b []byte) {
		var recs []SinkRecord
		n, err := decodeLedgerBlock(b, func(ts int64, key, value []byte) {
			recs = append(recs, SinkRecord{TS: ts, Key: key, Value: value})
		})
		if err != nil {
			var fe *binio.FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a FrameError", err)
			}
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decode took %d of %d bytes", n, len(b))
		}
		if re := ledgerBlock(recs); !bytes.Equal(re, b[:n]) {
			t.Fatalf("accepted block does not re-encode to itself:\n%x\n%x", b[:n], re)
		}
	})
}

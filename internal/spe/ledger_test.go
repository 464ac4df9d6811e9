package spe

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// ledgerBlock is the framed ledger block holding recs, as appendSegment
// writes it.
func ledgerBlock(recs []SinkRecord) []byte {
	var e ledgerEncoder
	b, err := e.encode(recs)
	if err != nil {
		panic(err)
	}
	return b
}

// rawLedgerBlock is the ledger block holding recs before deflate.
func rawLedgerBlock(recs []SinkRecord) []byte {
	p, _, err := binio.ReadRecord(ledgerBlock(recs))
	if err == nil {
		p, err = binio.Inflate(nil, p)
	}
	if err != nil {
		panic(err)
	}
	return p
}

// rowLedgerBlock is the block holding recs in the row layout before the
// columnar one: the count, then per record its TS delta, key and value.
func rowLedgerBlock(recs []SinkRecord) []byte {
	b := binio.PutUvarint(nil, uint64(len(recs)))
	var prev int64
	for _, r := range recs {
		b = binio.PutBytes(binio.PutBytes(binio.PutVarint(b, r.TS-prev), r.Key), r.Value)
		prev = r.TS
	}
	return b
}

// deflatedBlock frames the deflate stream of payload as a ledger block.
func deflatedBlock(payload []byte) []byte {
	z, err := binio.Deflate(nil, payload)
	if err != nil {
		panic(err)
	}
	return binio.AppendRecord(nil, z)
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
// typed FrameError, and so is a block whose payload is not a deflate stream
// — the layout before blocks were deflated.
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
	payload := rawLedgerBlock(sampleLedger[0])
	undeflated := binio.AppendRecord(nil, payload)
	if _, err := ReadLedger(nil, writeJobDir(t, undeflated, len(undeflated))); !errors.As(err, &fe) {
		t.Fatalf("block whose records are not deflated: %v, want a FrameError", err)
	}
	payload[0]++ // the count names one record more than the block holds
	bad := deflatedBlock(payload)
	if _, err := ReadLedger(nil, writeJobDir(t, bad, len(bad))); !errors.As(err, &fe) {
		t.Fatalf("block with a wrong record count: %v, want a FrameError", err)
	}
	if recs, err := ReadLedger(nil, t.TempDir()); recs != nil || err != nil {
		t.Fatalf("directory without a JOB record: %v, %v; want nothing committed", recs, err)
	}
}

// columnBlock is a ledger block before deflate built from a record count
// and six columns as given, canonical or not.
func columnBlock(count uint64, cols [ledgerColumns][]byte) []byte {
	b := binio.PutUvarint(nil, count)
	for _, c := range cols {
		b = binio.PutUvarint(b, uint64(len(c)))
	}
	for _, c := range cols {
		b = append(b, c...)
	}
	return b
}

// uvarints is a column of uvarints.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binio.PutUvarint(b, v)
	}
	return b
}

// nonCanonicalBlocks are ledger blocks before deflate that the column
// codec accepts but the ledger encoder never writes, each next to why.
// What the codec itself rejects is binio's TestColumnsRejectNonCanonical.
var nonCanonicalBlocks = []struct {
	why string
	raw []byte
}{
	{"timestamps descend", columnBlock(2, [ledgerColumns][]byte{
		uvarints(5, 1<<64-1), uvarints(0, 0), uvarints(1, 1), []byte("ab"), uvarints(0, 0), nil})},
	{"timestamps overflow", columnBlock(2, [ledgerColumns][]byte{
		uvarints(1<<62, 1<<62), uvarints(0, 0), uvarints(1, 1), []byte("ab"), uvarints(0, 0), nil})},
	{"keys descend within a timestamp", columnBlock(2, [ledgerColumns][]byte{
		uvarints(5, 0), uvarints(0, 0), uvarints(1, 1), []byte("ba"), uvarints(0, 0), nil})},
	{"values descend within a key", columnBlock(2, [ledgerColumns][]byte{
		uvarints(5, 0), uvarints(0, 1), uvarints(1, 0), []byte("a"), uvarints(1, 1), []byte("yx")})},
	{"row layout", rowLedgerBlock(sampleLedger[0])},
}

// TestLedgerBlockRejectsNonCanonical: a ledger block whose columns hold
// records out of canonical order, or the row layout before the columnar
// one, fails with a FrameError, while the canonical blocks around it
// decode.
func TestLedgerBlockRejectsNonCanonical(t *testing.T) {
	for _, tc := range nonCanonicalBlocks {
		block := deflatedBlock(tc.raw)
		var fe *binio.FrameError
		if _, err := ReadLedger(nil, writeJobDir(t, block, len(block))); !errors.As(err, &fe) {
			t.Errorf("%s: %v, want a FrameError", tc.why, err)
		}
	}
	canonical := []SinkRecord{
		{TS: 1, Key: []byte("ab")}, {TS: 1, Key: []byte("ac")}, {TS: 1, Key: []byte("ac"), Value: []byte("x")},
		{TS: 2, Key: []byte("a")}, {TS: 2, Key: []byte("abc")}, {TS: 9, Key: []byte("")},
	}
	if got := decodeLedgerBytes(t, ledgerBlock(canonical)); !reflect.DeepEqual(normalize(got), normalize(canonical)) {
		t.Fatalf("canonical block decodes to %v, want %v", got, canonical)
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
// a FrameError, and consume a whole block within the input when it
// accepts. The records of an accepted block must re-encode to exactly the
// columns its payload inflates to — the columnar layout is canonical —
// and to a block that decodes to the same records. (The deflate stream itself
// is not canonical: many streams inflate to the same bytes.)
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
	f.Add(deflatedBlock(binio.PutUvarint(nil, 1<<40)))
	// Valid frames whose payloads are not deflate streams: a reserved
	// block type, and a block's records framed without deflate.
	f.Add(binio.AppendRecord(nil, []byte{0x07, 0x01}))
	f.Add(binio.AppendRecord(nil, rawLedgerBlock(sampleLedger[0])))
	// Deflated blocks the encoder never writes: records out of order, the
	// row layout before the columnar one, and a canonical payload with one
	// of its first bytes — the record count, the column lengths, the first
	// TS delta — bumped, so the column codec's rules are a byte away.
	for _, tc := range nonCanonicalBlocks {
		f.Add(deflatedBlock(tc.raw))
	}
	for i := 0; i < 8; i++ {
		raw := rawLedgerBlock(sampleLedger[0])
		raw[i]++
		f.Add(deflatedBlock(raw))
	}
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
		p, _, err := binio.ReadRecord(b)
		if err != nil {
			t.Fatalf("accepted block's frame: %v", err)
		}
		raw, err := binio.Inflate(nil, p)
		if err != nil {
			t.Fatalf("accepted block's payload: %v", err)
		}
		if re := rawLedgerBlock(recs); !bytes.Equal(re, raw) {
			t.Fatalf("accepted block's records do not re-encode to its payload:\n%x\n%x", raw, re)
		}
		re := ledgerBlock(recs)
		if got := decodeLedgerBytes(t, re); !reflect.DeepEqual(normalize(got), normalize(recs)) {
			t.Fatalf("re-encoded block decodes to %v, want %v", got, recs)
		}
	})
}

// freshBlock frames the stream a fresh flate.Writer at level writes for
// parts, each part past the first in blocks of its own.
func freshBlock(t *testing.T, level int, parts ...[]byte) []byte {
	t.Helper()
	var z bytes.Buffer
	w, err := flate.NewWriter(&z, level)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if i > 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return binio.AppendRecord(nil, z.Bytes())
}

// columnParts cuts a ledger block before deflate where the encoder cuts
// it into blocks: the record count and column lengths with the ts column,
// then each other column.
func columnParts(raw []byte) [][]byte {
	b := raw
	lens := make([]int, ledgerColumns+1)
	for i := range lens {
		v, n := binary.Uvarint(b)
		lens[i], b = int(v), b[n:]
	}
	end := len(raw) - len(b) + lens[1]
	parts := [][]byte{raw[:end]}
	for _, l := range lens[2:] {
		parts, end = append(parts, raw[end:end+l]), end+l
	}
	return parts
}

// TestLedgerBlockBytesIgnoreEncoderHistory: a block is a pure function of
// its records. The encoder appendSegment reuses across commits — and the
// pooled deflate writer behind it — must produce, after encoding other
// blocks, the bytes a fresh flate.BestSpeed writer produces coding one
// column a block; resumed, rescaled and migrated ledgers are
// byte-identical only because of this.
func TestLedgerBlockBytesIgnoreEncoderHistory(t *testing.T) {
	big := make([]SinkRecord, 5000)
	for i := range big {
		big[i] = SinkRecord{TS: int64(i / 7), Key: []byte(fmt.Sprintf("key-%05d", i*31%5000)), Value: []byte(strconv.Itoa(i % 97))}
	}
	sets := append(append([][]SinkRecord(nil), sampleLedger...), big, nil, sampleLedger[0])
	var reused ledgerEncoder
	for i, recs := range sets {
		got, err := reused.encode(recs)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshBlock(t, flate.BestSpeed, columnParts(rawLedgerBlock(recs))...); !bytes.Equal(got, want) {
			t.Fatalf("set %d: a reused encoder wrote %d bytes that differ from a fresh one's %d", i, len(got), len(want))
		}
	}
}

// TestLedgerReadsWholeBestSpeedBlocks: a block an older build wrote — its
// columns deflated as one flate.BestSpeed stream, not a block a column —
// decodes to the same records, and a ledger holding such a block and then
// one this encoder wrote, as a job resumed across the change holds, reads
// whole through ReadLedger.
func TestLedgerReadsWholeBestSpeedBlocks(t *testing.T) {
	var want []SinkRecord
	for _, recs := range sampleLedger {
		old := freshBlock(t, flate.BestSpeed, rawLedgerBlock(recs))
		if got := decodeLedgerBytes(t, old); !reflect.DeepEqual(normalize(got), normalize(recs)) {
			t.Fatalf("whole BestSpeed block decodes to %v, want %v", got, recs)
		}
		want = append(want, recs...)
	}
	ledger := append(freshBlock(t, flate.BestSpeed, rawLedgerBlock(sampleLedger[0])), ledgerBlock(sampleLedger[1])...)
	got, err := ReadLedger(nil, writeJobDir(t, ledger, len(ledger)))
	if err != nil || !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("ReadLedger over an old block and a new one: %v, %v; want %v", got, err, want)
	}
}

// TestLedgerBytesPerRecordBudget pins what a committed sink record costs
// in the ledger, frame and deflate included, for the two shapes a window
// job commits: one fixed-window firing — 5 000 results sharing a
// timestamp, keys ascending decimal ids — and a run of session results
// with distinct timestamps and keys in no order. The columnar layout
// turns the firing's timestamps into a run of zeros and keeps only the
// key bytes that change; the row layout before it took 5.80 and 5.60
// bytes a record, and the same columns deflated as one stream rather than
// a block a column 2.71 and 2.78. (Both shapes repeat with short periods
// — i*13%40, i*37%211, 7*i — which match search finds: coded
// Huffman-only, as AAR codes its chunks, they take 3.55 and 4.36.)
func TestLedgerBytesPerRecordBudget(t *testing.T) {
	firing := make([]SinkRecord, 5000)
	for i := range firing {
		firing[i] = SinkRecord{
			TS:    1_700_000_125_000,
			Key:   []byte(strconv.Itoa(1_000_000 + 7*i)),
			Value: []byte(strconv.Itoa(100 + i*7919%99_000)),
		}
	}
	sessions := make([]SinkRecord, 5000)
	ts := int64(1_700_000_000_000)
	for i := range sessions {
		ts += 1 + int64(i*37%211)
		sessions[i] = SinkRecord{
			TS:    ts,
			Key:   []byte(strconv.Itoa(1_000_000 + i*7_919%50_000)),
			Value: []byte(strconv.Itoa(1 + i*13%40)),
		}
	}
	for _, tc := range []struct {
		name   string
		recs   []SinkRecord
		budget float64
	}{
		{"fixed-window firing", firing, 2.60},
		{"sessions", sessions, 2.62},
	} {
		n := len(ledgerBlock(tc.recs))
		per := float64(n) / float64(len(tc.recs))
		row := float64(len(deflatedBlock(rowLedgerBlock(tc.recs)))) / float64(len(tc.recs))
		t.Logf("%s: %d records in %d bytes, %.2f B each (row layout %.2f)", tc.name, len(tc.recs), n, per, row)
		if per > tc.budget {
			t.Errorf("%s: a record takes %.2f bytes in the ledger, budget %.2f", tc.name, per, tc.budget)
		}
	}
}

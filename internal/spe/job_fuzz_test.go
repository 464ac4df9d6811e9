package spe

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// realJobRecord runs a tiny checkpointed job and returns its committed
// JOB file — a seed drawn from the real encoder+commit path rather than
// hand-assembled bytes.
func realJobRecord(f *testing.F) []byte {
	f.Helper()
	base := f.TempDir()
	pat := crashPatterns()[0] // AAR
	job := &Job{
		Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), nil, 1<<20),
		Source:          NewSliceSource(crashTuples(60)),
		Dir:             filepath.Join(base, "job"),
		CheckpointEvery: 25,
	}
	if _, err := job.Run(); err != nil {
		f.Fatalf("seed job: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(base, "job", jobMetaName))
	if err != nil {
		f.Fatalf("seed job record: %v", err)
	}
	return b
}

// FuzzDecodeJobRecord feeds arbitrary bytes to the JOB file decoder.
// The JOB record is the single commit point of every checkpointed run —
// resume trusts it to locate the committed generation, source offset
// and ledger length — so the decoder must reject corruption with a
// reason rather than panic, and anything it accepts must survive a
// re-encode/decode round trip unchanged.
func FuzzDecodeJobRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeJobMeta(JobMeta{}))
	f.Add(encodeJobMeta(JobMeta{
		Gen: 7, Offset: 4210, TuplesIn: 4210, MaxTS: 982, SinceWM: 10,
		LedgerLen: 65536, StagePars: []int64{2, 4, 1},
	}))
	f.Add(encodeJobMeta(JobMeta{Gen: 3, Final: true, Offset: 100, LedgerLen: 12, StagePars: []int64{1}}))
	f.Add(encodeJobMeta(JobMeta{
		Gen: 2, Offset: 99, TuplesIn: 99, MaxTS: 55, SinceWM: 3, LedgerLen: 2048,
		StagePars: []int64{2, 3}, Routing: [][]int64{nil, {2, 0, 1}},
	}))
	real := realJobRecord(f)
	f.Add(real)
	// Truncated and bit-flipped variants of the real committed record.
	f.Add(real[:len(real)/2])
	flipped := append([]byte(nil), real...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeJobMeta(b)
		if err != nil {
			return
		}
		re := encodeJobMeta(m)
		m2, err := decodeJobMeta(re)
		if err != nil {
			t.Fatalf("re-encoded JOB record rejected: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed record: %+v -> %+v", m, m2)
		}
	})
}

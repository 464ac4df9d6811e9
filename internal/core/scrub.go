package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// quarantineName is the marker file that sets a corrupt checkpoint
// directory aside. A quarantined checkpoint is never restored from,
// never resolved as a delta parent (the next CheckpointDelta silently
// falls back to a full base) and never verifies; whoever owns the
// directory's lineage — a job resuming from its generations — skips it
// and keeps its rotten bytes for inspection.
const quarantineName = "QUARANTINE"

// IsQuarantined reports whether checkpoint directory dir carries a
// quarantine marker. A nil fsys means the real OS filesystem.
func IsQuarantined(fsys faultfs.FS, dir string) bool {
	_, ok := QuarantineReason(fsys, dir)
	return ok
}

// QuarantineReason returns the reason recorded in dir's quarantine
// marker and whether the marker exists. A nil fsys means the real OS
// filesystem.
func QuarantineReason(fsys faultfs.FS, dir string) (string, bool) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	b, err := fsys.ReadFile(filepath.Join(dir, quarantineName))
	if err != nil {
		return "", false
	}
	return strings.TrimSpace(string(b)), true
}

// QuarantineCheckpoint marks checkpoint directory dir quarantined,
// recording reason in the marker. The marker is staged and atomically
// renamed into place, then the directory entry is fsynced, so a crash
// mid-quarantine leaves either no marker (the next verification
// re-detects the corruption and the caller retries) or a complete one —
// never a state where the checkpoint half-exists. Quarantining an already-quarantined directory
// keeps the original marker. A nil fsys means the real OS filesystem.
func QuarantineCheckpoint(fsys faultfs.FS, dir, reason string) error {
	if fsys == nil {
		fsys = faultfs.OS
	}
	if IsQuarantined(fsys, dir) {
		return nil
	}
	if err := faultfs.WriteFileAtomic(fsys, filepath.Join(dir, quarantineName), []byte(reason+"\n")); err != nil {
		return fmt.Errorf("flowkv: quarantine %s: %w", dir, err)
	}
	return nil
}

// ScrubOptions configures one scrub sweep.
type ScrubOptions struct {
	// BytesPerSec rate-limits the sweep: after each scrubbed target the
	// sweep sleeps long enough that the cumulative scan rate stays at or
	// below the budget. 0 scans at full speed.
	BytesPerSec int64
}

// ScrubVerdict is one scrubbed instance directory's outcome.
type ScrubVerdict struct {
	// Path is the scrubbed instance directory.
	Path string
	// Files, Records and Bytes count what verified cleanly.
	Files   int
	Records int
	Bytes   int64
	// Healed counts live logs whose unsynced tail was rotten on disk but
	// intact in the retained in-memory copy and was rewritten in place.
	Healed int
	// Err is the corruption or I/O error, nil when the target verified.
	Err error
}

// ScrubReport is the aggregate outcome of one scrub sweep.
type ScrubReport struct {
	// Verdicts holds one entry per scrubbed target, in scan order.
	Verdicts []ScrubVerdict
	// Files and Bytes total the cleanly verified data.
	Files int
	Bytes int64
	// Corrupt counts targets where corruption was detected this sweep;
	// Healed counts live logs repaired in place.
	Corrupt int
	Healed  int
}

func (r *ScrubReport) add(v ScrubVerdict) {
	r.Verdicts = append(r.Verdicts, v)
	r.Files += v.Files
	r.Bytes += v.Bytes
	r.Healed += v.Healed
	if v.Err != nil {
		r.Corrupt++
	}
}

// scrubPacer spreads a sweep's reads over time so scrubbing stays a
// background activity: pace sleeps until the cumulative bytes scanned
// fit under the configured rate.
type scrubPacer struct {
	bps   int64
	start time.Time
	done  int64
}

func newScrubPacer(bps int64) *scrubPacer {
	return &scrubPacer{bps: bps, start: time.Now()}
}

func (p *scrubPacer) pace(n int64) {
	if p.bps <= 0 {
		return
	}
	p.done += n
	budget := time.Duration(float64(p.done) / float64(p.bps) * float64(time.Second))
	if sleep := budget - time.Since(p.start); sleep > 0 {
		time.Sleep(sleep)
	}
}

// Scrub runs one incremental sweep over the store's live logs, verifying
// every record frame against the bytes actually on disk. Checkpoints are
// not the store's to sweep: VerifyCheckpointDir checks one — job resume,
// VerifyJobDir, flowkvctl and the job manager's slot scrub call it — and
// QuarantineCheckpoint sets a rotten one aside.
//
// Live logs are scrubbed one instance at a time (each scrub holds only
// that instance's I/O lock, so ingestion on other instances proceeds).
// Rot confined to an instance's unsynced tail is healed in place by the
// durable-offset truncate path; rot below the durable offset is
// unrepairable from the live log alone and is returned as the sweep
// error — the caller (a job manager, an operator) decides whether to
// fail over or restore.
func (s *Store) Scrub(opts ScrubOptions) (*ScrubReport, error) {
	rep := &ScrubReport{}
	pacer := newScrubPacer(opts.BytesPerSec)
	var firstErr error
	for i, inst := range s.insts {
		sum, err := inst.Scrub()
		rep.add(ScrubVerdict{
			Path:    instDir(s.opts.Dir, i),
			Files:   sum.Files,
			Records: sum.Records,
			Bytes:   sum.Bytes,
			Healed:  sum.Healed,
			Err:     err,
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
		pacer.pace(sum.Bytes)
	}
	s.scrubFiles.Add(int64(rep.Files))
	s.scrubBytes.Add(rep.Bytes)
	s.scrubCorrupt.Add(int64(rep.Corrupt))
	s.scrubHealed.Add(int64(rep.Healed))
	return rep, firstErr
}

// firstCorruptFrame locates the first record frame in b that fails its
// checksum, for error reports that name an offset rather than just a
// file. It returns -1 when the frames scan cleanly (the mismatch lies in
// non-framed bytes) or the file is not frame-structured.
func firstCorruptFrame(b []byte) int64 {
	sc := binio.NewRecordScanner(bytes.NewReader(b), 0)
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil && errors.Is(err, binio.ErrCorrupt) {
		return sc.Offset()
	}
	return -1
}

// ScrubberOptions configures a background scrubber started with
// Store.StartScrubber.
type ScrubberOptions struct {
	// Interval is the pause between sweeps. Default 30s. Sweeps run
	// unpaced (ScrubOptions{}).
	Interval time.Duration
	// OnSweep, when non-nil, is called after every sweep with its report
	// and error. Called from the scrubber goroutine; keep it cheap.
	OnSweep func(*ScrubReport, error)
}

// Scrubber is a background integrity sweeper: at every interval it runs
// Store.Scrub, healing what the retained tails allow, so silent rot in the
// live logs is found by the scrubber before a read needs the bytes. Stop
// it before closing the store.
type Scrubber struct {
	s    *Store
	opts ScrubberOptions

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	sweeps  atomic.Int64
	corrupt atomic.Int64

	mu      sync.Mutex
	lastErr error
	lastRep *ScrubReport
}

// StartScrubber launches a background scrubber for the store.
func (s *Store) StartScrubber(opts ScrubberOptions) *Scrubber {
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	sc := &Scrubber{s: s, opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	go sc.run()
	return sc
}

func (sc *Scrubber) run() {
	defer close(sc.done)
	for {
		select {
		case <-sc.stop:
			return
		case <-time.After(sc.opts.Interval):
		}
		rep, err := sc.s.Scrub(ScrubOptions{})
		sc.sweeps.Add(1)
		sc.corrupt.Add(int64(rep.Corrupt))
		sc.mu.Lock()
		sc.lastErr = err
		sc.lastRep = rep
		sc.mu.Unlock()
		if sc.opts.OnSweep != nil {
			sc.opts.OnSweep(rep, err)
		}
	}
}

// Stop halts the scrubber and waits for its goroutine to exit. Safe to
// call more than once.
func (sc *Scrubber) Stop() {
	sc.stopOnce.Do(func() { close(sc.stop) })
	<-sc.done
}

// Sweeps returns how many sweeps have completed.
func (sc *Scrubber) Sweeps() int64 { return sc.sweeps.Load() }

// CorruptFound returns how many corrupt targets all sweeps found.
func (sc *Scrubber) CorruptFound() int64 { return sc.corrupt.Load() }

// Last returns the most recent sweep's report and error (nil, nil
// before the first sweep completes).
func (sc *Scrubber) Last() (*ScrubReport, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.lastRep, sc.lastErr
}

package logfile

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"flowkv/internal/metrics"
)

// SegmentName is the file name of segment id's log with the given prefix.
func SegmentName(prefix string, id uint32) string { return fmt.Sprintf("%s-%06d.log", prefix, id) }

// Segment is one segment of a segmented log: a log file created, sealed
// and unlinked whole. Its size counts toward space amplification; Live is
// the part of it its store still references. Log, Epoch and Entries are
// owned by ioMu; Live and Sealed are guarded by mu.
type Segment struct {
	ID   uint32
	Log  *Log
	Live int64
	// Epoch tells a checkpoint this file from another of its name: a cut
	// links what its parent holds only while they match.
	Epoch uint64
	// Entries counts the entries of the blocks its store installed, and so
	// is the next one's ordinal — its bit in a checkpoint's liveness file.
	// Blocks a failed cleaning pass appended lie past them, and get none.
	Entries uint32
	Sealed  bool
}

// SegmentStats is a segment set's lifecycle accounting.
type SegmentStats struct {
	// Passes counts cleaning passes, Compactions those that re-appended
	// anything, CompactionBytes what they re-appended.
	Passes, Compactions, CompactionBytes int64
	// SegmentsDropped counts segments unlinked, emptied or cleaned.
	SegmentsDropped int64
	LiveSegments    int
}

// Segments is the segmented log the RMW and AUR stores share: a segment is
// created when first needed — as the flush head flushes append to, or the
// survivor cleaning re-appends to — sealed once its log holds
// sealBytes or its owner says so (a checkpoint seals every open segment it
// links, so no linked file is written again), unlinked without a byte copied once
// nothing in it is live, and cleaned, emptiest first, while space
// amplification over the logs exceeds msa. Survivors never go to
// the head: what survives a pass is long-lived by selection and would pin
// the segment of short-lived state it was appended to.
//
// It works under its owner's locks: ioMu serializes everything touching
// the logs, mu guards the owner's in-memory state and is never held while
// ioMu is taken. The table changes only with both held, so either suffices
// to read it (Get, Len). Unless a method says otherwise the caller holds
// ioMu.
type Segments struct {
	ioMu, mu  *sync.Mutex
	syncMu    sync.Mutex // one Sync at a time, held around (not under) ioMu
	dir       *Dir
	prefix    string // the segment files' name prefix
	sealBytes int64
	msa       float64

	segs       map[uint32]*Segment
	head, surv *Segment // nil until first needed and again once sealed
	next       uint32
	closed     bool // set by Close with ioMu and mu held

	passes, compactions, cleaned, dropped metrics.Counter
}

// NewSegments returns an empty set in dir whose segment files are named
// SegmentName(prefix, id). A set starts empty, so segment files an earlier
// process left in dir are unlinked: one may share its inode with a
// checkpoint, which creating over it would truncate.
func NewSegments(dir *Dir, ioMu, mu *sync.Mutex, prefix string, sealBytes int64, msa float64) (*Segments, error) {
	ents, err := dir.FS().ReadDir(dir.Root())
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix+"-") {
			err = cmp.Or(err, dir.Remove(e.Name()))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("logfile: clear stale segments: %w", err)
	}
	return &Segments{ioMu: ioMu, mu: mu, dir: dir, prefix: prefix, sealBytes: sealBytes, msa: msa,
		segs: make(map[uint32]*Segment)}, nil
}

// Dir returns the directory the segment files live in.
func (ss *Segments) Dir() *Dir { return ss.dir }

// Name returns segment id's file name.
func (ss *Segments) Name(id uint32) string { return SegmentName(ss.prefix, id) }

// Get returns segment id; the caller holds ioMu or mu.
func (ss *Segments) Get(id uint32) *Segment { return ss.segs[id] }

// Len returns the number of segments; the caller holds ioMu or mu.
func (ss *Segments) Len() int { return len(ss.segs) }

// Closed reports whether Close has run; the caller holds ioMu or mu.
func (ss *Segments) Closed() bool { return ss.closed }

// Head returns the open flush head, nil if there is none.
func (ss *Segments) Head() *Segment { return ss.head }

// Survivor returns the open survivor segment, nil if there is none.
func (ss *Segments) Survivor() *Segment { return ss.surv }

// NextID returns the id the next segment created will get.
func (ss *Segments) NextID() uint32 { return ss.next }

// OpenHead returns the flush head, creating it on first need: a set that
// never spills owns no file.
func (ss *Segments) OpenHead() (*Segment, error) {
	if ss.head == nil {
		sg, err := ss.open(ss.next, ss.dir.Create, rand.Uint64())
		if err != nil {
			return nil, err
		}
		ss.head = sg
	}
	return ss.head, nil
}

// ReopenSealed registers segment id, whose file a restore put back, sealed
// under epoch: a file never to be written again (Dir.OpenSealed), its bytes
// checksumming to crc. Later segments are numbered after it.
func (ss *Segments) ReopenSealed(id uint32, epoch uint64, crc uint32) (*Segment, error) {
	sg, err := ss.open(id, func(name string) (*Log, error) { return ss.dir.OpenSealed(name, crc) }, epoch)
	if err != nil {
		return nil, err
	}
	ss.Seal(sg, true)
	return sg, nil
}

// open creates or opens segment id's log and registers it under epoch; on
// failure it uses up no id.
func (ss *Segments) open(id uint32, open func(name string) (*Log, error), epoch uint64) (*Segment, error) {
	l, err := open(SegmentName(ss.prefix, id))
	if err != nil {
		return nil, err
	}
	sg := &Segment{ID: id, Log: l, Epoch: epoch}
	ss.next = id + 1
	ss.mu.Lock()
	ss.segs[id] = sg
	ss.mu.Unlock()
	return sg, nil
}

// Seal closes sg to appends once its log holds sealBytes, or whatever it
// holds with force. A sealed segment stays readable until its last live
// record is consumed or cleaned away, but gives its write buffer back now:
// a set holds a dozen sealed segments for every open one.
func (ss *Segments) Seal(sg *Segment, force bool) {
	if !force && sg.Log.Size() < ss.sealBytes {
		return
	}
	ss.mu.Lock()
	sg.Sealed = true
	ss.mu.Unlock()
	ss.unassign(sg)
	// A failed flush poisons the log, which keeps serving its records from
	// the retained tail; the next Sync, or the health check, reports it.
	_ = sg.Log.Seal()
}

// unassign stops appending to sg if it is the head or the survivor.
func (ss *Segments) unassign(sg *Segment) {
	if ss.head == sg {
		ss.head = nil
	}
	if ss.surv == sg {
		ss.surv = nil
	}
}

// drop forgets sg, whose files are gone or going.
func (ss *Segments) drop(sg *Segment) {
	ss.mu.Lock()
	delete(ss.segs, sg.ID)
	ss.mu.Unlock()
	ss.unassign(sg)
}

// Reap unlinks every sealed segment nothing in which is live and forgets
// it. The unlinks go first: if one fails the segment stays tracked and
// open, the next reap retries, and the first failure is returned. A reader
// that located a record in a reaped segment before it was consumed or
// moved may still be reading it without ioMu; the close fails that read,
// and the reader retries under ioMu.
func (ss *Segments) Reap() (first error) {
	ss.mu.Lock()
	var empty []*Segment
	for _, sg := range ss.segs {
		if sg.Sealed && sg.Live == 0 {
			empty = append(empty, sg)
		}
	}
	ss.mu.Unlock()
	slices.SortFunc(empty, func(a, b *Segment) int { return int(a.ID) - int(b.ID) })
	for _, sg := range empty {
		if err := ss.dir.Remove(SegmentName(ss.prefix, sg.ID)); err != nil {
			first = cmp.Or(first, err)
			continue
		}
		ss.drop(sg)
		_ = sg.Log.Close() // the file is gone; nothing it buffered is referenced
		ss.dropped.Inc()
	}
	return first
}

// List returns the segments in id (creation) order.
func (ss *Segments) List() []*Segment {
	ss.mu.Lock()
	segs := make([]*Segment, 0, len(ss.segs))
	for _, sg := range ss.segs {
		segs = append(segs, sg)
	}
	ss.mu.Unlock()
	slices.SortFunc(segs, func(a, b *Segment) int { return int(a.ID) - int(b.ID) })
	return segs
}

// Logs returns every segment's log in id order.
func (ss *Segments) Logs() []*Log {
	var logs []*Log
	for _, sg := range ss.List() {
		logs = append(logs, sg.Log)
	}
	return logs
}

// Clean reaps the segments that emptied by themselves and, when space
// amplification — log bytes over live bytes — still exceeds msa,
// runs one cleaning pass. Its victims are the segments with the lowest
// live share (PickVictims) but the flush head — the open survivor too,
// sealed early if picked, so a mostly dead one cannot sit on its bytes for
// want of new survivors to fill it. copyLive is handed each victim with
// anything live, its live bytes and the survivor (opened on first need),
// appends the victim's live records there and remembers the moves; then
// install, in one mu section of its own, makes the copies the live ones
// and returns the bytes the pass appended. The victims are empty then,
// and reaped.
//
// Nothing is installed until every victim is copied, so a pass whose
// copyLive or install fails leaves its owner pointing at the intact
// victims; a survivor the pass opened is removed, and one it found open is
// sealed, so what the pass appended there stays dead.
func (ss *Segments) Clean(copyLive func(v *Segment, live int64, surv *Segment) error, install func(surv *Segment) (int64, error)) error {
	if err := ss.Reap(); err != nil {
		return err
	}
	victims := ss.victims()
	if len(victims) == 0 {
		return nil
	}
	if bd := ss.dir.Breakdown(); bd != nil {
		defer bd.Start(metrics.OpCompact)()
	}
	for _, v := range victims {
		ss.Seal(v, true) // news only to an open survivor
	}
	opens := ss.surv == nil
	appended, err := ss.copyAll(victims, copyLive, install)
	if sg := ss.surv; err != nil && sg != nil {
		ss.Seal(sg, true)
		if opens {
			ss.drop(sg)
			sg.Log.Remove() // best effort; the fault may also block the unlink
		}
	}
	if err != nil {
		return err
	}
	ss.passes.Inc()
	if appended > 0 {
		ss.compactions.Inc()
		ss.cleaned.Add(appended)
	}
	if ss.surv != nil {
		ss.Seal(ss.surv, false)
	}
	return ss.Reap()
}

// victims chooses a cleaning pass's victims, none while amplification is
// within msa.
func (ss *Segments) victims() []*Segment {
	var cands []Candidate
	var total, live int64
	ss.mu.Lock()
	for _, sg := range ss.segs {
		c := Candidate{ID: sg.ID, Size: sg.Log.Size(), Live: sg.Live}
		total += c.Size
		live += c.Live
		if sg != ss.head && c.Live < c.Size {
			cands = append(cands, c)
		}
	}
	ss.mu.Unlock()
	if live == 0 { // amplification 1.0
		return nil
	}
	var victims []*Segment
	for _, c := range PickVictims(cands, total, live, ss.msa) {
		victims = append(victims, ss.segs[c.ID])
	}
	return victims
}

func (ss *Segments) copyAll(victims []*Segment, copyLive func(v *Segment, live int64, surv *Segment) error, install func(surv *Segment) (int64, error)) (int64, error) {
	for _, v := range victims {
		ss.mu.Lock()
		live := v.Live
		ss.mu.Unlock()
		if live == 0 {
			continue
		}
		if ss.surv == nil {
			sg, err := ss.open(ss.next, ss.dir.Create, rand.Uint64())
			if err != nil {
				return 0, err
			}
			ss.surv = sg
		}
		if err := copyLive(v, live, ss.surv); err != nil {
			return 0, err
		}
	}
	if ss.surv == nil {
		return 0, nil
	}
	return install(ss.surv)
}

// Sync runs flush under ioMu, then fsyncs every log holding bytes not yet
// durable — a sealed segment's at most once in its life — each with ioMu
// released (SplitSync), so reads and later
// flushes overlap it; a segment dropped meanwhile has nothing left to make
// durable. A cleaning pass that moved records meanwhile may have moved them
// from a segment already synced into one that is not, and then the sweep
// is repeated. Sync takes the locks itself, one caller at a time.
func (ss *Segments) Sync(flush func() error) error {
	ss.syncMu.Lock()
	defer ss.syncMu.Unlock()
	ss.ioMu.Lock()
	err := flush()
	ss.ioMu.Unlock()
	for err == nil {
		ss.ioMu.Lock()
		moved := ss.compactions.Load()
		segs := ss.List()
		ss.ioMu.Unlock()
		for _, sg := range segs {
			if err := SplitSync(ss.ioMu, func() *Log {
				if ss.segs[sg.ID] != sg || sg.Log.DurableOffset() == sg.Log.Size() {
					return nil
				}
				return sg.Log
			}); err != nil {
				return err
			}
		}
		if ss.compactions.Load() == moved {
			return nil
		}
	}
	return err
}

// Flush writes every log's buffered appends to its file.
func (ss *Segments) Flush() error {
	for _, l := range ss.Logs() {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the bytes of every log, appends still in a write buffer
// included. It takes ioMu.
func (ss *Segments) Size() (n int64) {
	ss.ioMu.Lock()
	defer ss.ioMu.Unlock()
	for _, l := range ss.Logs() {
		n += l.Size()
	}
	return n
}

// Poisoned returns the first poisoning error among the logs. It takes
// ioMu.
func (ss *Segments) Poisoned() error {
	ss.ioMu.Lock()
	defer ss.ioMu.Unlock()
	return FirstPoisoned(ss.Logs())
}

// Recover reopens every poisoned log at its durable offset (see
// RecoverAll). It takes ioMu.
func (ss *Segments) Recover() error {
	ss.ioMu.Lock()
	defer ss.ioMu.Unlock()
	return RecoverAll(ss.Logs())
}

// Close closes every log, leaving the files on disk, and returns the first
// failure; closing a closed set does nothing. Its owner is closed with it
// (Closed). It takes ioMu and mu.
func (ss *Segments) Close() (first error) {
	ss.ioMu.Lock()
	defer ss.ioMu.Unlock()
	ss.mu.Lock()
	closed := ss.closed
	ss.closed = true
	ss.mu.Unlock()
	if closed {
		return nil
	}
	for _, l := range ss.Logs() {
		first = cmp.Or(first, l.Close())
	}
	return first
}

// Stats returns the set's lifecycle accounting. It takes mu.
func (ss *Segments) Stats() SegmentStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return SegmentStats{Passes: ss.passes.Load(), Compactions: ss.compactions.Load(),
		CompactionBytes: ss.cleaned.Load(), SegmentsDropped: ss.dropped.Load(), LiveSegments: len(ss.segs)}
}

package logfile

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"flowkv/internal/metrics"
)

// SegmentName is the file name of segment id's log with the given prefix.
func SegmentName(prefix string, id uint32) string { return fmt.Sprintf("%s-%06d.log", prefix, id) }

// A segment's role, as a checkpoint records it.
const (
	SegmentSealed byte = iota
	SegmentHead
	SegmentSurvivor
)

// Segment is one segment of a segmented log: a log file created, sealed
// and unlinked whole. Its size counts toward space amplification; Live is
// the part of it its store still references. Log and X, the store's own
// per-segment state, are owned by ioMu; Live and Sealed are guarded by mu.
type Segment[X any] struct {
	ID     uint32
	Log    *Log
	Live   int64
	Sealed bool
	X      X
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
// sealBytes or its owner says so, unlinked without a byte copied once
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
type Segments[X any] struct {
	ioMu, mu  *sync.Mutex
	syncMu    sync.Mutex // one Sync at a time, held around (not under) ioMu
	dir       *Dir
	prefix    string // the segment files' name prefix
	sealBytes int64
	msa       float64
	newX      func() X

	segs       map[uint32]*Segment[X]
	head, surv *Segment[X] // nil until first needed and again once sealed
	next       uint32
	closed     bool // set by Close with ioMu and mu held

	passes, compactions, cleaned, dropped metrics.Counter
}

// NewSegments returns an empty set in dir whose segment files are named
// SegmentName(prefix, id) and whose segments get an X from newX (nil: the
// zero X).
func NewSegments[X any](dir *Dir, ioMu, mu *sync.Mutex, prefix string, sealBytes int64, msa float64, newX func() X) *Segments[X] {
	if newX == nil {
		newX = func() (x X) { return x }
	}
	return &Segments[X]{ioMu: ioMu, mu: mu, dir: dir, prefix: prefix, sealBytes: sealBytes, msa: msa,
		newX: newX, segs: make(map[uint32]*Segment[X])}
}

// Get returns segment id; the caller holds ioMu or mu.
func (ss *Segments[X]) Get(id uint32) *Segment[X] { return ss.segs[id] }

// Len returns the number of segments; the caller holds ioMu or mu.
func (ss *Segments[X]) Len() int { return len(ss.segs) }

// Closed reports whether Close has run; the caller holds ioMu or mu.
func (ss *Segments[X]) Closed() bool { return ss.closed }

// Head returns the open flush head, nil if there is none.
func (ss *Segments[X]) Head() *Segment[X] { return ss.head }

// Survivor returns the open survivor segment, nil if there is none.
func (ss *Segments[X]) Survivor() *Segment[X] { return ss.surv }

// NextID returns the id the next segment created will get.
func (ss *Segments[X]) NextID() uint32 { return ss.next }

// State returns sg's role.
func (ss *Segments[X]) State(sg *Segment[X]) byte {
	switch sg {
	case ss.head:
		return SegmentHead
	case ss.surv:
		return SegmentSurvivor
	}
	return SegmentSealed
}

// OpenHead returns the flush head, creating it on first need: a set that
// never spills owns no file.
func (ss *Segments[X]) OpenHead() (*Segment[X], error) {
	if ss.head == nil {
		sg, err := ss.open(ss.next, ss.dir.Create, ss.newX())
		if err != nil {
			return nil, err
		}
		ss.head = sg
	}
	return ss.head, nil
}

// Reopen registers segment id, whose files a restore put back, in role
// state with payload x; later segments are numbered after it.
func (ss *Segments[X]) Reopen(id uint32, state byte, x X) (*Segment[X], error) {
	sg, err := ss.open(id, ss.dir.Open, x)
	if err != nil {
		return nil, err
	}
	switch state {
	case SegmentHead:
		ss.head = sg
	case SegmentSurvivor:
		ss.surv = sg
	default:
		ss.Seal(sg, true)
	}
	return sg, nil
}

// ReopenSealed is Reopen for a sealed segment whose file is never to be
// written again (Dir.OpenSealed), its bytes checksumming to crc.
func (ss *Segments[X]) ReopenSealed(id uint32, x X, crc uint32) (*Segment[X], error) {
	sg, err := ss.open(id, func(name string) (*Log, error) { return ss.dir.OpenSealed(name, crc) }, x)
	if err != nil {
		return nil, err
	}
	ss.Seal(sg, true)
	return sg, nil
}

// open creates or opens segment id's log and registers it with payload x;
// on failure it uses up no id.
func (ss *Segments[X]) open(id uint32, open func(name string) (*Log, error), x X) (*Segment[X], error) {
	l, err := open(SegmentName(ss.prefix, id))
	if err != nil {
		return nil, err
	}
	sg := &Segment[X]{ID: id, Log: l, X: x}
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
func (ss *Segments[X]) Seal(sg *Segment[X], force bool) {
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
func (ss *Segments[X]) unassign(sg *Segment[X]) {
	if ss.head == sg {
		ss.head = nil
	}
	if ss.surv == sg {
		ss.surv = nil
	}
}

// drop forgets sg, whose files are gone or going.
func (ss *Segments[X]) drop(sg *Segment[X]) {
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
func (ss *Segments[X]) Reap() (first error) {
	ss.mu.Lock()
	var empty []*Segment[X]
	for _, sg := range ss.segs {
		if sg.Sealed && sg.Live == 0 {
			empty = append(empty, sg)
		}
	}
	ss.mu.Unlock()
	slices.SortFunc(empty, func(a, b *Segment[X]) int { return int(a.ID) - int(b.ID) })
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
func (ss *Segments[X]) List() []*Segment[X] {
	ss.mu.Lock()
	segs := make([]*Segment[X], 0, len(ss.segs))
	for _, sg := range ss.segs {
		segs = append(segs, sg)
	}
	ss.mu.Unlock()
	slices.SortFunc(segs, func(a, b *Segment[X]) int { return int(a.ID) - int(b.ID) })
	return segs
}

// Logs returns every segment's log in id order.
func (ss *Segments[X]) Logs() []*Log {
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
func (ss *Segments[X]) Clean(copyLive func(v *Segment[X], live int64, surv *Segment[X]) error, install func(surv *Segment[X]) (int64, error)) error {
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
func (ss *Segments[X]) victims() []*Segment[X] {
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
	var victims []*Segment[X]
	for _, c := range PickVictims(cands, total, live, ss.msa) {
		victims = append(victims, ss.segs[c.ID])
	}
	return victims
}

func (ss *Segments[X]) copyAll(victims []*Segment[X], copyLive func(v *Segment[X], live int64, surv *Segment[X]) error, install func(surv *Segment[X]) (int64, error)) (int64, error) {
	for _, v := range victims {
		ss.mu.Lock()
		live := v.Live
		ss.mu.Unlock()
		if live == 0 {
			continue
		}
		if ss.surv == nil {
			sg, err := ss.open(ss.next, ss.dir.Create, ss.newX())
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
func (ss *Segments[X]) Sync(flush func() error) error {
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
func (ss *Segments[X]) Flush() error {
	for _, l := range ss.Logs() {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the bytes of every log, appends still in a write buffer
// included. It takes ioMu.
func (ss *Segments[X]) Size() (n int64) {
	ss.ioMu.Lock()
	defer ss.ioMu.Unlock()
	for _, l := range ss.Logs() {
		n += l.Size()
	}
	return n
}

// Poisoned returns the first poisoning error among the logs. It takes
// ioMu.
func (ss *Segments[X]) Poisoned() error {
	ss.ioMu.Lock()
	defer ss.ioMu.Unlock()
	return FirstPoisoned(ss.Logs())
}

// Recover reopens every poisoned log at its durable offset (see
// RecoverAll). It takes ioMu.
func (ss *Segments[X]) Recover() error {
	ss.ioMu.Lock()
	defer ss.ioMu.Unlock()
	return RecoverAll(ss.Logs())
}

// Close closes every log, leaving the files on disk, and returns the first
// failure; closing a closed set does nothing. Its owner is closed with it
// (Closed). It takes ioMu and mu.
func (ss *Segments[X]) Close() (first error) {
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
func (ss *Segments[X]) Stats() SegmentStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return SegmentStats{Passes: ss.passes.Load(), Compactions: ss.compactions.Load(),
		CompactionBytes: ss.cleaned.Load(), SegmentsDropped: ss.dropped.Load(), LiveSegments: len(ss.segs)}
}

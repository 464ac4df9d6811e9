package bench

import (
	"encoding/binary"
	"sort"
	"time"

	"flowkv/internal/spe"
)

// pacer is the open-loop arrival process of the paced phases: batch
// tuples become due together every period (at most 1 ms of input), on a
// schedule fixed when the first tuple is released. A tuple is stamped
// with its due time, not its release time, so a stall in the consumer is
// charged to every tuple that was due while it lasted.
type pacer struct {
	rate     float64 // tuples per second
	batch    int64
	periodNS float64

	start int64 // unix ns: due time of batch 0
	cur   int64 // due time of the batch being released
	left  int64 // tuples of that batch not yet released

	// One entry per batch: when it was due and when it was released.
	due, released []int64
}

func newPacer(rate float64) *pacer {
	batch := int64(rate / 1000)
	if batch < 1 {
		batch = 1
	}
	return &pacer{rate: rate, batch: batch, periodNS: float64(batch) / rate * 1e9}
}

// release blocks until the next tuple is due and returns its due time in
// unix nanoseconds.
func (p *pacer) release() int64 {
	if p.left > 0 {
		p.left--
		return p.cur
	}
	now := time.Now().UnixNano()
	k := len(p.due)
	if k == 0 {
		p.start = now
	}
	due := p.start + int64(float64(k)*p.periodNS)
	if d := due - now; d > 0 {
		time.Sleep(time.Duration(d))
		now = time.Now().UnixNano()
	}
	p.due = append(p.due, due)
	p.released = append(p.released, now)
	p.cur, p.left = due, p.batch-1
	return due
}

// dueAt resolves a result's origin stamp to the due time of the tuple
// that triggered it. A result fired by a tuple carries that tuple's stamp,
// which already is a due time. A result fired by a watermark carries the
// wall-clock instant at which the runtime stamped the watermark, while it
// was feeding a tuple; that maps to the batch being released then.
func (p *pacer) dueAt(stampNS int64) int64 {
	if i := sort.Search(len(p.due), func(i int) bool { return p.due[i] >= stampNS }); i < len(p.due) && p.due[i] == stampNS {
		return stampNS
	}
	k := sort.Search(len(p.released), func(i int) bool { return p.released[i] > stampNS }) - 1
	if k < 0 {
		k = 0
	}
	return p.due[k]
}

// lagsMs returns, per batch, how late the generator released it.
func (p *pacer) lagsMs() []float64 {
	out := make([]float64, len(p.due))
	for i := range p.due {
		out[i] = float64(p.released[i]-p.due[i]) / 1e6
	}
	return out
}

// backlogEvents is the input still owed when the last batch went out.
func (p *pacer) backlogEvents() float64 {
	if len(p.due) == 0 {
		return 0
	}
	last := len(p.due) - 1
	return float64(p.released[last]-p.due[last]) / 1e9 * p.rate
}

// sourceProbe watches a blockSource's Next calls. The program under test
// pulls tuples one at a time, so the gap between the two calls that
// straddle a checkpoint barrier is the commit as the input stream feels
// it, and the first call after a SeekTo is the moment a resumed job is
// processing again.
type sourceProbe struct {
	// every is the job's CheckpointEvery; 0 disables gap detection.
	every     int64
	toBarrier int64
	gapStart  time.Time
	gaps      []time.Duration

	// resumeAt is set by the driver just before Job.Resume.
	resumeAt   time.Time
	seekAt     time.Time
	awaitFirst bool
	restores   []time.Duration // Resume entry -> SeekTo
	seeks      []time.Duration // SeekTo -> first Next
	recoveries []time.Duration // Resume entry -> first Next

	// tr (traced runs only) makes the probe record each commit gap as a
	// span and accumulate the time between Next calls: how long the
	// consumer held the source goroutine.
	tr       *tracer
	stream   int
	gapID    int32
	lastExit time.Time
	held     time.Duration
}

func (p *sourceProbe) enter() {
	if !p.gapStart.IsZero() {
		now := time.Now()
		p.gaps = append(p.gaps, now.Sub(p.gapStart))
		if p.tr != nil {
			tag, _ := p.tr.genTag[p.stream].Load().(string)
			p.tr.record(p.gapID, 0, "spe.commit", tag, p.gapStart, now)
			p.tr.commitID[p.stream].Store(0)
		}
		p.gapStart = time.Time{}
	}
	if p.awaitFirst {
		p.awaitFirst = false
		now := time.Now()
		p.seeks = append(p.seeks, now.Sub(p.seekAt))
		p.recoveries = append(p.recoveries, now.Sub(p.resumeAt))
	}
	if p.tr != nil && !p.lastExit.IsZero() {
		p.held += time.Since(p.lastExit)
	}
}

func (p *sourceProbe) exit() {
	if p.every > 0 {
		if p.toBarrier--; p.toBarrier <= 0 {
			p.toBarrier = p.every
			p.gapStart = time.Now()
			if p.tr != nil {
				p.gapID = p.tr.newID()
				p.tr.commitID[p.stream].Store(p.gapID)
			}
		}
	}
	if p.tr != nil {
		p.lastExit = time.Now()
	}
}

func (p *sourceProbe) seeked() {
	p.toBarrier, p.gapStart, p.lastExit = p.every, time.Time{}, time.Time{}
	if p.tr != nil {
		p.tr.commitID[p.stream].Store(0)
	}
	if !p.resumeAt.IsZero() {
		p.seekAt = time.Now()
		p.restores = append(p.restores, p.seekAt.Sub(p.resumeAt))
		p.awaitFirst = true
	}
}

// Digest is an order-independent fingerprint of a result set: the count
// plus XOR and sum of FNV-64a over key, timestamp and value.
type Digest struct {
	Count int64  `json:"count"`
	Xor   uint64 `json:"xor"`
	Sum   uint64 `json:"sum"`
}

func (d *Digest) add(key []byte, ts int64, value []byte) {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range key {
		h = (h ^ uint64(b)) * prime
	}
	var tsb [8]byte
	binary.LittleEndian.PutUint64(tsb[:], uint64(ts))
	for _, b := range tsb {
		h = (h ^ uint64(b)) * prime
	}
	for _, b := range value {
		h = (h ^ uint64(b)) * prime
	}
	d.Count++
	d.Xor ^= h
	d.Sum += h
}

func (d *Digest) merge(o Digest) {
	d.Count += o.Count
	d.Xor ^= o.Xor
	d.Sum += o.Sum
}

// sinkTap observes results where they leave the pipeline: the sink
// callback of spe.Run, or a pass-through last stage of a job (whose own
// sink is the ledger). In a paced phase it keeps each result's origin
// stamp and arrival time; latencies are resolved after the run.
type sinkTap struct {
	digest Digest
	paced  bool
	origin []int64 // result WallNS: the triggering watermark's stamp
	seen   []int64 // arrival, unix ns
}

func (s *sinkTap) observe(t spe.Tuple) {
	s.digest.add(t.Key, t.TS, t.Value)
	if s.paced {
		s.origin = append(s.origin, t.WallNS)
		s.seen = append(s.seen, time.Now().UnixNano())
	}
}

// stage wraps the tap as a stateless last stage.
func (s *sinkTap) stage() spe.Stage {
	return spe.Stage{Name: "tap", Parallelism: 1, Map: func(t spe.Tuple, emit func(spe.Tuple)) {
		s.observe(t)
		emit(t)
	}}
}

// latenciesMs resolves the tap's samples against the pacer's schedule:
// due time of the triggering tuple to arrival at the sink. Results
// stamped after the source ended are the end-of-stream flush, not
// steady-state output, and are left out.
func (s *sinkTap) latenciesMs(p *pacer, srcEndNS int64) []float64 {
	out := make([]float64, 0, len(s.origin))
	for i, w := range s.origin {
		if w >= srcEndNS {
			continue
		}
		out = append(out, float64(s.seen[i]-p.dueAt(w))/1e6)
	}
	return out
}

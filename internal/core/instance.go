package core

import (
	"flowkv/internal/ckpt"
	"flowkv/internal/core/aar"
	"flowkv/internal/core/aur"
	"flowkv/internal/core/rmw"
	"flowkv/internal/logfile"
)

// instance is the lifecycle surface every store pattern shares: what the
// composite store does to all m instances alike, whichever pattern they
// are. The pattern-specific read/write API is not here — those calls go
// through the typed views on Store, chosen once at OpenPattern, so the
// hot path pays no interface dispatch.
type instance interface {
	// Flush spills the write buffer to the instance's logs.
	Flush() error
	// Sync flushes and fsyncs, making every acknowledged write durable.
	Sync() error
	// Poisoned returns the first poisoning error among the live logs.
	Poisoned() error
	// Recover reopens poisoned logs at their durable offsets.
	Recover() error
	// Scrub verifies the live logs' record frames against their checksums.
	Scrub() (logfile.ScrubSummary, error)
	// CheckpointDelta writes the instance's snapshot into cut: its sealed
	// files, linked, and its sections of the checkpoint's CUT.
	CheckpointDelta(cut *ckpt.Cut) (*ckpt.Result, error)
	// Restore rebuilds a freshly opened instance from its part of a
	// checkpoint.
	Restore(src *ckpt.Source) error
	// Close closes the instance, leaving its state on disk.
	Close() error
	// Destroy closes the instance and deletes its directory.
	Destroy() error
	// addStats folds the instance's evaluation metrics into st.
	addStats(st *Stats)
}

// The adapters give each pattern's store its addStats; every other
// instance method is the embedded store's own.
type (
	aarInstance struct{ *aar.Store }
	aurInstance struct{ *aur.Store }
	rmwInstance struct{ *rmw.Store }
)

func (a aarInstance) addStats(st *Stats) {
	st.BufferedBytes += a.BufferedBytes()
	st.DiskBytes += a.DiskUsage()
	st.LiveSegments += a.LiveFiles()
}

func (a aurInstance) addStats(st *Stats) {
	h, m := a.HitCount()
	st.Hits += h
	st.Misses += m
	st.Evictions += a.Evictions()
	addSegmentStats(st, a.SegmentStats())
	st.FlushBytes += a.FlushBytes()
	b, d := a.ConsumedCount()
	st.BufferHits += b
	st.DiskHits += d
	st.BufferedBytes += a.BufferedBytes()
	st.LiveStates += a.LiveStates()
	st.DiskBytes += a.DiskUsage()
}

func (r rmwInstance) addStats(st *Stats) {
	addSegmentStats(st, r.SegmentStats())
	st.FlushBytes += r.FlushBytes()
	b, d := r.HitCount()
	st.BufferHits += b
	st.DiskHits += d
	st.BufferedBytes += r.BufferedBytes()
	st.LiveStates += r.LiveStates()
	st.DiskBytes += r.DiskUsage()
}

// addSegmentStats folds a segmented log's lifecycle accounting into st.
func addSegmentStats(st *Stats, ss logfile.SegmentStats) {
	st.Compactions += ss.Compactions
	st.CompactionBytes += ss.CompactionBytes
	st.SegmentsDropped += ss.SegmentsDropped
	st.LiveSegments += ss.LiveSegments
}

// Package spe implements a miniature stream processing engine — the
// repository's stand-in for Apache Flink. It exists to drive state
// backends with exactly the call sequences a real SPE produces (§2.1):
//
//   - infinite streams of timestamped key-value tuples;
//   - key-partitioned physical operators, each a single-threaded worker
//     owning a private store instance;
//   - event-time processing with watermarks flowing through the dataflow
//     (broadcast downstream, min-combined across inputs);
//   - stateful window operators supporting fixed, sliding, session,
//     count and global windows, with incremental (RMW) and holistic
//     (Append) aggregation, session-window merging, replication of
//     tuples into overlapping sliding windows, and per-key or aligned
//     triggers.
//
// Pipelines are small DAGs of window and map stages connected by bounded
// channels (natural backpressure), terminated by a sink that measures
// result counts and event-to-emission latency.
package spe

import (
	"fmt"

	"flowkv/internal/window"
)

// Tuple is one stream element e = (k, v, t) (§2.1), plus the wall-clock
// instant it entered the pipeline, which latency probes carry through to
// the sink.
type Tuple struct {
	// Key partitions the stream; Value is the payload.
	Key   []byte
	Value []byte
	// TS is the event-time timestamp in milliseconds.
	TS int64
	// WallNS is the wall-clock origin used for end-to-end latency.
	WallNS int64
}

// Message is what flows on inter-operator channels: a tuple or a
// watermark.
type Message struct {
	// Tuple is valid when IsWatermark is false.
	Tuple Tuple
	// Watermark asserts no further tuples with TS < Watermark will
	// arrive on this input.
	Watermark int64
	// IsWatermark discriminates the union.
	IsWatermark bool
	// WallNS is the wall clock at the message's origin.
	WallNS int64
	// barrier, when non-nil, marks a checkpoint alignment point (job
	// runs); the tuple and watermark fields are ignored.
	barrier *barrier
}

// IncrementalAgg is an associative and commutative aggregate function
// applied incrementally (Flink's AggregateFunction): the operator keeps
// one accumulator per (key, window) and classifies as RMW (§3.1).
type IncrementalAgg interface {
	// Add folds a tuple into the accumulator; acc is nil for the first
	// tuple of a window.
	Add(acc []byte, t Tuple) []byte
	// Merge combines two accumulators (session-window merging).
	Merge(a, b []byte) []byte
	// Result converts the final accumulator into the emitted value.
	Result(acc []byte) []byte
}

// HolisticAgg is an aggregate function that needs every tuple of the
// window before triggering (Flink's ProcessWindowFunction): the operator
// appends tuple values and classifies as Append (§3.1). Result may return
// nil to emit nothing for a key.
type HolisticAgg interface {
	// Result computes the emitted value from the full value list of one
	// key in the triggered window.
	Result(key []byte, values [][]byte) []byte
}

// IncrementalFunc adapts plain functions to IncrementalAgg.
type IncrementalFunc struct {
	AddFunc    func(acc []byte, t Tuple) []byte
	MergeFunc  func(a, b []byte) []byte
	ResultFunc func(acc []byte) []byte
}

// Add implements IncrementalAgg.
func (f IncrementalFunc) Add(acc []byte, t Tuple) []byte { return f.AddFunc(acc, t) }

// Merge implements IncrementalAgg.
func (f IncrementalFunc) Merge(a, b []byte) []byte {
	if f.MergeFunc == nil {
		panic("spe: IncrementalFunc.Merge unset")
	}
	return f.MergeFunc(a, b)
}

// Result implements IncrementalAgg.
func (f IncrementalFunc) Result(acc []byte) []byte {
	if f.ResultFunc == nil {
		return acc
	}
	return f.ResultFunc(acc)
}

// HolisticFunc adapts a plain function to HolisticAgg.
type HolisticFunc func(key []byte, values [][]byte) []byte

// Result implements HolisticAgg.
func (f HolisticFunc) Result(key []byte, values [][]byte) []byte { return f(key, values) }

// OperatorSpec describes one logical window operation: the window
// function plus exactly one aggregate function. It carries everything
// FlowKV's launch-time classification needs (§3.1).
type OperatorSpec struct {
	// Assigner is the window function.
	Assigner window.Assigner
	// Incremental xor Holistic selects the aggregate interface.
	Incremental IncrementalAgg
	Holistic    HolisticAgg
	// Profiler, when set on a custom-window operator, receives every
	// observed trigger so an adaptive predictor can learn ETTs (§8).
	// Share the same instance with the FlowKV backend's Predictor option.
	Profiler *window.AdaptivePredictor
}

// Validate checks the spec is well-formed.
func (s *OperatorSpec) Validate() error {
	if s.Assigner == nil {
		return fmt.Errorf("spe: operator needs a window assigner")
	}
	if (s.Incremental == nil) == (s.Holistic == nil) {
		return fmt.Errorf("spe: operator needs exactly one aggregate function")
	}
	return nil
}

// Holistic reports whether the operator appends tuple lists.
func (s *OperatorSpec) IsHolistic() bool { return s.Holistic != nil }

// Command storebench microbenchmarks the raw stores below the SPE,
// verifying the structural asymmetries the paper's argument rests on
// (§2.2): the hash log wins point RMW, the LSM tree wins appends via lazy
// merging, the hash log collapses on appends, and FlowKV's pattern
// stores beat both on their own patterns.
//
// Usage:
//
//	storebench                 # all workloads, default size
//	storebench -ops 500000     # bigger run
//	storebench -parallel 8 -json BENCH_core.json
//	                           # concurrent composite-store benchmark:
//	                           # 1 vs 8 workers on one core.Store
//	storebench -delta -json BENCH_core.json
//	                           # incremental-checkpoint benchmark: commit
//	                           # bytes and p99 latency as state grows
//	                           # 100x, full vs incr vs incr+group-commit
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flowkv/internal/core/aar"
	"flowkv/internal/core/aur"
	"flowkv/internal/core/rmw"
	"flowkv/internal/faster"
	"flowkv/internal/lsm"
	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

func main() {
	var (
		ops       = flag.Int("ops", 100_000, "operations per workload")
		dir       = flag.String("dir", "", "state directory (default: temp)")
		parallel  = flag.Int("parallel", 0, "run the concurrent composite-store benchmark with this many workers (plus a 1-worker baseline), skipping the baseline store comparison")
		syncEvery = flag.Int("syncEvery", 2000, "ops between Sync calls in the -parallel benchmark (0 disables)")
		jsonOut   = flag.String("json", "", "write -parallel results as JSON to this file (-delta merges under a \"delta\" key)")
		delta     = flag.Bool("delta", false, "run the incremental-checkpoint benchmark: commit bytes and latency as state grows 100x, full (Checkpoint: a parentless base every barrier) vs incremental vs incremental+group-commit")
	)
	flag.Parse()

	base := *dir
	if base == "" {
		var err error
		base, err = os.MkdirTemp("", "storebench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(base)
	}

	if *delta {
		runDeltaBench(base, *ops, *jsonOut)
		return
	}

	if *parallel > 0 {
		runParallelBench(base, *ops, *parallel, *syncEvery, *jsonOut)
		return
	}

	tb := metrics.NewTable("workload", "store", "ops", "elapsed", "ops/sec")
	row := func(workload, store string, n int, d time.Duration) {
		tb.AddRow(workload, store, n, d.Round(time.Millisecond),
			fmt.Sprintf("%.0f", float64(n)/d.Seconds()))
	}

	val := make([]byte, 84) // NEXMark bid-sized payload
	keys := 1000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i%keys)) }
	w := window.Window{Start: 0, End: 1 << 40}

	// --- RMW point workload: counter increments ---
	inc := func(old []byte) []byte {
		var c uint64
		if old != nil {
			c = binary.LittleEndian.Uint64(old)
		}
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], c+1)
		return out[:]
	}

	{
		db, err := faster.Open(faster.Options{Dir: filepath.Join(base, "faster-rmw")})
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for i := 0; i < *ops; i++ {
			if err := db.RMW(key(i), inc); err != nil {
				fatal(err)
			}
		}
		row("rmw-counter", "faster", *ops, time.Since(start))
		db.Destroy()
	}
	{
		db, err := lsm.Open(lsm.Options{Dir: filepath.Join(base, "lsm-rmw"), MergeOperator: lsm.AppendListOperator{}})
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for i := 0; i < *ops; i++ {
			old, _, err := db.Get(key(i))
			if err != nil {
				fatal(err)
			}
			if err := db.Put(key(i), inc(old)); err != nil {
				fatal(err)
			}
		}
		row("rmw-counter", "rocksdb(lsm)", *ops, time.Since(start))
		db.Destroy()
	}
	{
		st, err := rmw.Open(rmw.Options{Dir: filepath.Join(base, "flowkv-rmw")})
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for i := 0; i < *ops; i++ {
			old, _, err := st.Get(key(i), w)
			if err != nil {
				fatal(err)
			}
			if err := st.Put(key(i), w, inc(old)); err != nil {
				fatal(err)
			}
		}
		row("rmw-counter", "flowkv-rmw", *ops, time.Since(start))
		st.Destroy()
	}

	// --- Append workload: list appends, then one read per key ---
	{
		db, err := lsm.Open(lsm.Options{Dir: filepath.Join(base, "lsm-append"), MergeOperator: lsm.AppendListOperator{}})
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for i := 0; i < *ops; i++ {
			if err := db.Merge(key(i), val); err != nil {
				fatal(err)
			}
		}
		for i := 0; i < keys; i++ {
			if _, _, err := db.Get(key(i)); err != nil {
				fatal(err)
			}
		}
		row("append+read", "rocksdb(lsm)", *ops, time.Since(start))
		db.Destroy()
	}
	{
		// Cap the hash-log append run: read-copy-update appends are
		// quadratic, the paper's DNF case.
		n := *ops
		if n > 50_000 {
			n = 50_000
		}
		db, err := faster.Open(faster.Options{Dir: filepath.Join(base, "faster-append")})
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := db.AppendList(key(i), val); err != nil {
				fatal(err)
			}
		}
		for i := 0; i < keys; i++ {
			if _, _, err := db.Read(key(i)); err != nil {
				fatal(err)
			}
		}
		row(fmt.Sprintf("append+read (capped %d)", n), "faster", n, time.Since(start))
		db.Destroy()
	}
	{
		st, err := aar.Open(aar.Options{Dir: filepath.Join(base, "flowkv-aar")})
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for i := 0; i < *ops; i++ {
			if err := st.Append(key(i), val, w); err != nil {
				fatal(err)
			}
		}
		for {
			part, err := st.GetWindow(w)
			if err != nil {
				fatal(err)
			}
			if part == nil {
				break
			}
		}
		row("append+read", "flowkv-aar", *ops, time.Since(start))
		st.Destroy()
	}
	{
		st, err := aur.Open(aur.Options{
			Dir:       filepath.Join(base, "flowkv-aur"),
			Predictor: window.SessionPredictor{Gap: 1000},
		})
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for i := 0; i < *ops; i++ {
			if err := st.Append(key(i), val, w, int64(i)); err != nil {
				fatal(err)
			}
		}
		for i := 0; i < keys; i++ {
			if _, err := st.Get(key(i), w); err != nil {
				fatal(err)
			}
		}
		row("append+read", "flowkv-aur", *ops, time.Since(start))
		st.Destroy()
	}

	fmt.Print(tb)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "storebench:", err)
	os.Exit(1)
}

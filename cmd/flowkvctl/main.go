// Command flowkvctl inspects on-disk FlowKV store state: it decodes AAR
// per-window logs, AUR segment logs, and RMW logs, printing entry
// summaries and space accounting. Useful for debugging store behaviour
// and for verifying what a checkpoint contains.
//
// Usage:
//
//	flowkvctl ls    <store-dir>        # list files with sizes and kinds (a checkpoint: CUT and the files it links)
//	flowkvctl aur   <aur-*.log file>   # flush number, keys, windows and value counts per block of an AUR segment
//	flowkvctl aar   <win_*.log file>   # keys, values and on-disk and decoded bytes per flush chunk of an AAR per-window log
//	flowkvctl rmw   <rmw-*.log file>   # flush number, key, window and aggregate bytes per entry of an RMW segment
//	flowkvctl health <store-dir>       # offline log integrity scan
//	flowkvctl checkpoints <parent-dir> # list and verify checkpoints
//	flowkvctl job <job-dir>            # inspect a job's committed progress
//	flowkvctl job <job-dir> <par>      # additionally: can it resume at <par> workers?
//	flowkvctl migration <job-dir>      # live-migration journal and routing tables
//	flowkvctl tenants <manager-dir>    # per-tenant token-bucket admission and write stats, pool health
//	flowkvctl verify <job-dir>         # deep offline verification of committed job state
package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/core"
	"flowkv/internal/core/aar"
	"flowkv/internal/faultfs"
	"flowkv/internal/jobmanager"
	"flowkv/internal/logfile"
	"flowkv/internal/metrics"
	"flowkv/internal/spe"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, path := os.Args[1], os.Args[2]
	var err error
	switch cmd {
	case "ls":
		err = cmdLs(path)
	case "aur":
		err = cmdAUR(path)
	case "aar":
		err = cmdAAR(path)
	case "rmw":
		err = cmdRMW(path)
	case "health":
		err = cmdHealth(path)
	case "checkpoints":
		err = cmdCheckpoints(path)
	case "job":
		target := 0
		if len(os.Args) > 3 {
			if target, err = strconv.Atoi(os.Args[3]); err != nil || target <= 0 {
				fmt.Fprintln(os.Stderr, "flowkvctl: target parallelism must be a positive integer")
				os.Exit(2)
			}
		}
		err = cmdJob(path, target)
	case "migration":
		err = cmdMigration(path)
	case "tenants":
		err = cmdTenants(path)
	case "verify":
		err = cmdVerify(path)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowkvctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flowkvctl {ls|aur|aar|rmw|health|checkpoints|job|migration|tenants|verify} <path> [job-target-parallelism]")
	os.Exit(2)
}

func cmdLs(dir string) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		kind := fileKind(d.Name())
		rel, _ := filepath.Rel(dir, path)
		fmt.Printf("%-20s %10d  %s\n", kind, info.Size(), rel)
		return nil
	})
}

// segmentLog matches the log of an AUR or RMW segment, live or as a
// checkpoint segment of it, capturing the instance prefix a checkpoint
// names it under (ckpt.InstPrefix), the store's prefix and the segment's
// id.
var segmentLog = regexp.MustCompile(`^(inst-\d{2}\.)?(aur|rmw)-(\d{6})\.log`)

// checkpointFile matches a checkpoint's file, "inst-NN.<logical>"
// (ckpt.FileName), capturing the live file it holds.
var checkpointFile = regexp.MustCompile(`^inst-\d{2}\.(.+)$`)

// fileKind names what a store or checkpoint file holds, from its file
// name alone: live logs by their prefix, a checkpoint's files by the live
// file each holds, and the fixed-name files.
func fileKind(name string) string {
	logical, suffix := name, "-log"
	if m := checkpointFile.FindStringSubmatch(name); m != nil {
		logical, suffix = m[1], "-seg"
	}
	switch {
	case strings.HasPrefix(logical, "win_"):
		return "aar-window" + suffix
	case strings.HasPrefix(logical, "aur-"):
		return "aur-segment" + suffix
	case strings.HasPrefix(logical, "rmw-"):
		return "rmw" + suffix
	case strings.HasSuffix(name, ".sst"):
		return "sstable"
	case strings.HasPrefix(name, "hlog-"):
		return "hybrid-log"
	case name == ckpt.CutName:
		return "checkpoint-cut"
	case name == "QUARANTINE":
		return "quarantine-marker"
	}
	return "unknown"
}

func scanRecords(path string, fn func(i int, off int64, payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := binio.NewRecordScanner(bufio.NewReaderSize(f, 1<<20), 0)
	var i int
	var off int64
	for sc.Scan() {
		if err := fn(i, off, sc.Record()); err != nil {
			return err
		}
		off = sc.Offset()
		i++
	}
	if sc.Truncated() {
		fmt.Printf("(torn tail after offset %d)\n", sc.Offset())
	}
	return sc.Err()
}

func cmdAUR(path string) error {
	fmt.Println("#   flush  key                window                 values")
	var blocks, entries, values int
	err := scanRecords(path, func(i int, _ int64, payload []byte) error {
		n, err := logfile.DecodeSegmentBlock(payload, func(e *logfile.BlockEntry) error {
			fmt.Printf("%-3d %5d  %-18s %-22s %6d\n", i, e.Seq, e.Key, e.Window, len(e.Values))
			values += len(e.Values)
			return nil
		})
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		blocks, entries = blocks+1, entries+n
		return nil
	})
	fmt.Printf("%d blocks, %d batches, %d values\n", blocks, entries, values)
	return err
}

func cmdAAR(path string) error {
	fmt.Println("#   keys  values   bytes  decoded   first-key")
	var chunks, keys, values, disk, decoded int
	err := scanRecords(path, func(i int, _ int64, payload []byte) error {
		var firstKey []byte
		info, err := aar.DecodeChunk(payload, func(key []byte, _ [][]byte) {
			if firstKey == nil {
				firstKey = append([]byte{}, key...)
			}
		})
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		n := len(payload) + binio.RecordOverhead(len(payload))
		chunks, keys, values = chunks+1, keys+info.Keys, values+info.Values
		disk, decoded = disk+n, decoded+info.Decoded
		fmt.Printf("%-3d %5d %7d %7d %8d   %s\n", i, info.Keys, info.Values, n, info.Decoded, firstKey)
		return nil
	})
	perValue := 0.0
	if values > 0 {
		perValue = float64(disk) / float64(values)
	}
	fmt.Printf("%s: %d chunks, %d keys, %d values, %d bytes on disk, %d decoded, %.2f B a value\n",
		filepath.Base(path), chunks, keys, values, disk, decoded, perValue)
	return err
}

// cmdHealth is an offline integrity scan: every recognized log file in
// the store directory is walked record by record, so CRC corruption and
// torn tails are reported per file. A torn tail alone is what a crash
// leaves (no store reopens a live log: a restart restores a checkpoint,
// whose files end on whole records); corrupt records in the middle of a
// log are not, and make the command fail.
//
// An AUR or RMW instance's log is a set of segments numbered from 0 in
// creation order, each a log of blocks of entries — value batches, or one
// aggregate each. Per instance it prints what its segments hold and, per
// segment, its entries and bytes and — inside a checkpoint, whose liveness
// file (aur.live, rmw.live) has a bit per entry — how much of it is live.
func cmdHealth(dir string) error {
	fmt.Println("status   records      bytes  file")
	var files, torn, corrupt int
	type segStat struct{ entries, blocks, bytes, live int64 }
	type segLog struct {
		inst   string // the instance directory, or a checkpoint's instance
		prefix string
		segs   map[uint32]*segStat
		live   map[uint32]*ckpt.SegLive // nil outside a checkpoint
	}
	logs := make(map[string]*segLog) // by instance directory and prefix
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		m := segmentLog.FindStringSubmatch(name)
		if m == nil && !strings.HasPrefix(name, "win_") {
			return nil
		}
		files++
		rel, _ := filepath.Rel(dir, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		var ss *segStat      // set for the log of an AUR or RMW segment
		var sl *ckpt.SegLive // and, in a checkpoint, its bitmap
		if m != nil {
			inst := filepath.Join(filepath.Dir(rel), strings.TrimSuffix(m[1], "."))
			key := filepath.Join(inst, m[2])
			lg := logs[key]
			if lg == nil {
				lg = &segLog{inst: inst, prefix: m[2], segs: make(map[uint32]*segStat)}
				logs[key] = lg
				if m[1] != "" {
					c, err := ckpt.ReadCut(faultfs.OS, filepath.Dir(path))
					var b []byte
					if err == nil {
						b, _ = c.Section(m[1] + ckpt.KindLive)
					}
					segs, err := ckpt.DecodeLiveness(b)
					if err != nil {
						return fmt.Errorf("%s: %w", key, err)
					}
					lg.live = make(map[uint32]*ckpt.SegLive, len(segs))
					for i := range segs {
						lg.live[segs[i].ID] = &segs[i]
					}
				}
			}
			sid, _ := strconv.ParseUint(m[3], 10, 32)
			if ss = lg.segs[uint32(sid)]; ss == nil { // a delta checkpoint may hold it in pieces, in order
				ss = &segStat{}
				lg.segs[uint32(sid)] = ss
			}
			sl = lg.live[uint32(sid)]
		}
		sc := binio.NewRecordScanner(bufio.NewReaderSize(f, 1<<20), 0)
		var records int
		for off := int64(0); sc.Scan(); off = sc.Offset() {
			records++
			if ss == nil {
				continue
			}
			frame := int(sc.Offset()-off) - len(sc.Record()) // counted by the first entry
			_, _ = logfile.DecodeSegmentBlock(sc.Record(), func(e *logfile.BlockEntry) error {
				if ord := uint32(ss.entries); sl != nil && ord < sl.Entries && sl.Live(ord) {
					ss.live += int64(e.Size + frame)
				}
				ss.entries++
				frame = 0
				return nil
			})
		}
		status := "ok"
		switch {
		case sc.Err() != nil:
			corrupt++
			status = fmt.Sprintf("corrupt: %v", sc.Err())
		case sc.Truncated():
			torn++
			status = fmt.Sprintf("torn@%d", sc.Offset())
		}
		fmt.Printf("%-8s %7d %10d  %s\n", status, records, sc.Offset(), rel)
		if ss != nil {
			ss.blocks += int64(records)
			ss.bytes += sc.Offset()
		}
		return nil
	})
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(logs))
	for key := range logs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var aurs, rmws int
	for _, key := range keys {
		lg := logs[key]
		inst := lg.inst
		sids := make([]uint32, 0, len(lg.segs))
		var sum segStat
		for sid, ss := range lg.segs {
			sids = append(sids, sid)
			sum.entries += ss.entries
			sum.blocks += ss.blocks
			sum.bytes += ss.bytes
		}
		sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
		noun := "entries"
		if lg.prefix == "aur" {
			aurs++
			noun = "batches"
			fmt.Printf("aur log %s: %d segments; %d batches in %d blocks, %d bytes\n",
				inst, len(sids), sum.entries, sum.blocks, sum.bytes)
		} else {
			// Segments are numbered in creation order: the highest number
			// says how many were dropped, and what is left how large an
			// eviction — a quarter of the write buffer — came out.
			rmws++
			created := int(sids[len(sids)-1]) + 1
			fmt.Printf("rmw log %s: %d live segments, at least %d dropped (emptied or cleaned); %d entries and %d blocks in %d bytes on disk, %d bytes a segment\n",
				inst, len(sids), created-len(sids), sum.entries, sum.blocks, sum.bytes, sum.bytes/int64(len(sids)))
		}
		for _, sid := range sids {
			ss := lg.segs[sid]
			// What is live is in the running store's memory; a checkpoint
			// carries it as a liveness section of its CUT.
			share := "live share not on disk (not a checkpoint)"
			if lg.live != nil {
				share = fmt.Sprintf("%d%% live", 100*ss.live/max(ss.bytes, 1))
			}
			fmt.Printf("  segment %06d: %d %s in %d bytes, %s\n", sid, ss.entries, noun, ss.bytes, share)
		}
	}
	if rmws > 0 {
		// The files record what is on disk now, not how it got there.
		fmt.Println("rmw logs: bytes flushed and cleaned, and aggregates consumed from the buffer vs from disk, are counters of the running store (core.Stats FlushBytes, CompactionBytes, BufferHits, DiskHits)")
	}
	if aurs > 0 {
		fmt.Println("aur logs: bytes flushed and cleaned, segments dropped, and sessions consumed from the buffer vs with state on disk, are counters of the running store (core.Stats FlushBytes, CompactionBytes, SegmentsDropped, BufferHits, DiskHits)")
	}
	fmt.Printf("%d log files: %d clean, %d torn tails (recoverable), %d corrupt\n",
		files, files-torn-corrupt, torn, corrupt)
	if corrupt > 0 {
		return fmt.Errorf("%d log files have unrecoverable corruption", corrupt)
	}
	return nil
}

// cmdCheckpoints lists every checkpoint under parent, verifying each
// against its CUT (file sizes and CRC32C checksums). Each is whole: its
// parent is not recorded, and it needs none of it to restore. Staging
// directories a crash left mid-cut are not listed.
func cmdCheckpoints(parent string) error {
	infos, err := core.ListCheckpoints(nil, parent)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Println("no checkpoints found")
		return nil
	}
	fmt.Println("checkpoint            pattern  inst  files       size       age  status")
	var invalid int
	for _, ci := range infos {
		status := "verified"
		if ci.Err != nil {
			invalid++
			status = fmt.Sprintf("INVALID: %v", ci.Err)
		}
		age := "?"
		if !ci.ModTime.IsZero() {
			age = time.Since(ci.ModTime).Round(time.Second).String()
		}
		fmt.Printf("%-20s  %-7s %5d %6d %10s %9s  %s\n",
			filepath.Base(ci.Path), ci.Pattern, ci.Instances, ci.Files,
			metrics.FormatBytes(ci.SizeBytes), age, status)
	}
	if invalid > 0 {
		return fmt.Errorf("%d of %d checkpoints failed verification", invalid, len(infos))
	}
	return nil
}

// cmdJob inspects a job directory: the committed JOB record (generation,
// source offset, committed ledger length), the key-range manifest
// (per-stage parallelism at commit time), the generation directories on
// disk, CUT verification of every worker checkpoint in the
// committed generation, and a committed-ledger summary (records,
// committed bytes, bytes a record, event-time range). With a target
// parallelism it additionally reports how a resume at that worker count
// would restore each stage — direct, or rescaled (key ranges
// regrouped). This is the operator's pre-restart check: if it passes,
// Resume will succeed.
func cmdJob(dir string, target int) error {
	meta, err := spe.ReadJobMeta(nil, dir)
	if err != nil {
		return err
	}
	state := "resumable"
	if meta.Final {
		state = "final (complete)"
	}
	fmt.Printf("job state:            %s\n", state)
	fmt.Printf("committed generation: %d\n", meta.Gen)
	fmt.Printf("source offset:        %d tuples\n", meta.Offset)
	fmt.Printf("tuples in / max ts:   %d / %d\n", meta.TuplesIn, meta.MaxTS)
	fmt.Printf("committed ledger:     %d bytes\n", meta.LedgerLen)

	gens, err := spe.ListGenerations(nil, dir)
	if err != nil {
		return err
	}
	for _, g := range gens {
		if g != meta.Gen {
			fmt.Printf("generation %d on disk: uncommitted (removed on resume)\n", g)
		}
	}

	genDir := filepath.Join(dir, spe.GenDirName(meta.Gen))
	ents, err := os.ReadDir(genDir)
	if err != nil {
		return fmt.Errorf("committed generation unreadable: %w", err)
	}
	// The committed StagePars is the key-range manifest; the listing
	// must hold exactly the cuts it names.
	cuts, err := spe.StageCuts(ents, meta.StagePars)
	if err != nil {
		return err
	}
	stages := make([]int, 0, len(cuts))
	for si := range cuts {
		stages = append(stages, si)
	}
	sort.Ints(stages)
	fmt.Println("key-range manifest:")
	for _, si := range stages {
		par := meta.StagePars[si]
		fmt.Printf("  stage %2d: %d workers; worker w owns keys with hash(key) mod %d == w\n", si, par, par)
	}

	fmt.Println("worker checkpoints:")
	var workers, invalid int
	for _, e := range ents {
		if _, _, ok := spe.ParseCutDir(e.Name()); !ok || !e.IsDir() {
			continue
		}
		workers++
		pat, inst, err := core.VerifyCheckpointDir(nil, filepath.Join(genDir, e.Name()))
		if err != nil {
			invalid++
			fmt.Printf("  %-10s INVALID: %v\n", e.Name(), err)
			continue
		}
		fmt.Printf("  %-10s %-7s x%d  verified\n", e.Name(), pat, inst)
	}

	recs, err := spe.ReadLedger(nil, dir)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Println("ledger: empty")
	} else {
		fmt.Printf("ledger: %d records in %d committed bytes, %.2f B a record, event time [%d, %d]\n",
			len(recs), meta.LedgerLen, float64(meta.LedgerLen)/float64(len(recs)), recs[0].TS, recs[len(recs)-1].TS)
	}

	if target > 0 {
		if meta.Final {
			fmt.Printf("resume at %d workers: job is final; Resume is a no-op\n", target)
		} else {
			fmt.Printf("resume at %d workers:\n", target)
			for _, si := range stages {
				if cuts[si] == target {
					fmt.Printf("  stage %2d: direct worker-for-worker restore\n", si)
				} else {
					fmt.Printf("  stage %2d: rescale %d -> %d; committed key ranges regrouped by rehash\n",
						si, cuts[si], target)
				}
			}
			// Show where the committed results' keys land under the new
			// partitioning, as a concrete sample of the re-route.
			seen := map[string]bool{}
			for _, rec := range recs {
				if len(seen) >= 5 || seen[string(rec.Key)] {
					continue
				}
				seen[string(rec.Key)] = true
				fmt.Printf("  key %-12q -> worker %d of %d\n",
					rec.Key, spe.WorkerForKey(rec.Key, target), target)
			}
		}
	}
	if invalid > 0 {
		return fmt.Errorf("%d of %d worker checkpoints failed verification", invalid, workers)
	}
	return nil
}

// cmdMigration inspects a job's live-migration state: the committed
// routing tables from the JOB record (flagging buckets that no longer
// live on their hash-default worker) and every journaled migration
// attempt with its protocol state. In-flight attempts (preparing /
// prepared) are normal only while the job runs; seen in a cold
// directory they mean the job died mid-handoff and the next Resume
// will reconcile them — committed iff the routing flip made it into
// the JOB record, aborted otherwise. Leftover mig-* staging
// directories are reported too (Resume clears them).
func cmdMigration(dir string) error {
	meta, err := spe.ReadJobMeta(nil, dir)
	if err != nil {
		return err
	}
	fmt.Printf("committed generation: %d\n", meta.Gen)
	fmt.Println("routing tables:")
	if len(meta.Routing) == 0 {
		fmt.Println("  (none recorded: every bucket on its hash-default worker)")
	}
	moved := 0
	for si, tab := range meta.Routing {
		par := len(tab)
		if si < len(meta.StagePars) && meta.StagePars[si] > 0 {
			par = int(meta.StagePars[si])
		}
		fmt.Printf("  stage %2d (%d workers, %d buckets):", si, par, len(tab))
		anyMoved := false
		for b, w := range tab {
			if par > 0 && int(w) != b%par {
				fmt.Printf(" bucket %d->worker %d", b, w)
				anyMoved = true
				moved++
			}
		}
		if !anyMoved {
			fmt.Print(" identity (no buckets migrated)")
		}
		fmt.Println()
	}

	recs, err := spe.ReadMigrationJournal(nil, dir)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Println("migration journal: empty (no migrations attempted)")
		return nil
	}
	fmt.Println("migration journal:")
	fmt.Println("  seq     stage  bucket  from  to   base-gen  state      detail")
	var inflight int
	for _, r := range recs {
		detail := r.Detail
		if r.State == spe.MigStatePreparing || r.State == spe.MigStatePrepared {
			inflight++
			if detail == "" {
				detail = "(in flight; reconciled on next Resume)"
			}
		}
		fmt.Printf("  %-7d %5d %7d %5d %4d %10d  %-9s  %s\n",
			r.Seq, r.Stage, r.Bucket, r.From, r.To, r.BaseGen, r.State, detail)
		staging := filepath.Join(dir, fmt.Sprintf("mig-%06d", r.Seq))
		if _, serr := os.Stat(staging); serr == nil {
			fmt.Printf("          staging dir present: %s\n", staging)
		}
	}
	fmt.Printf("%d attempts: %d in flight, %d buckets off their hash-default worker\n",
		len(recs), inflight, moved)
	return nil
}

// cmdVerify deep-verifies a job directory offline: JOB record decode,
// CUT verification (sizes + CRC32C) of every checkpoint in every
// retained generation, GENMETA sidecar agreement, quarantine markers,
// and a record-by-record payload decode of the committed sink ledger.
// This catches silent at-rest corruption, zeroed pages included, before
// an operator trusts the directory for a resume. Exit status is non-zero
// on the first failure.
func cmdVerify(dir string) error {
	if err := spe.VerifyJobDir(nil, dir); err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}
	fmt.Printf("%s: every committed byte verified (JOB, checkpoints, GENMETA, ledger)\n", dir)
	return nil
}

func cmdRMW(path string) error {
	fmt.Println("#   flush  key                window                 agg-bytes")
	var blocks, entries, aggBytes int
	err := scanRecords(path, func(i int, _ int64, payload []byte) error {
		n, err := logfile.DecodeSegmentBlock(payload, func(e *logfile.BlockEntry) error {
			var size int
			for _, v := range e.Values { // one, the aggregate
				size += len(v)
			}
			fmt.Printf("%-3d %5d  %-18s %-22s %9d\n", i, e.Seq, e.Key, e.Window, size)
			aggBytes += size
			return nil
		})
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		blocks, entries = blocks+1, entries+n
		return nil
	})
	fmt.Printf("%d blocks, %d entries, %d aggregate bytes\n", blocks, entries, aggBytes)
	return err
}

// cmdTenants renders a job manager directory's persisted TENANTS.json:
// per-tenant admission counters (admitted/throttled/shed), write-side
// bandwidth accounting, admit-latency quantiles, failovers, and the
// store pool's slot health.
func cmdTenants(dir string) error {
	doc, err := jobmanager.ReadTenantsFile(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-8s %-7s %9s %9s %8s %10s %10s %7s %9s %8s %9s %6s\n",
		"tenant", "state", "slot", "admitted", "throttled", "shed",
		"admit-p50", "admit-p99", "stalls", "io-stalls", "write-p99", "failovers", "ckpts")
	for _, s := range doc.Tenants {
		fmt.Printf("%-10s %-8s %-7s %9d %9d %8d %10v %10v %7d %9d %8v %9d %6d\n",
			s.Tenant, s.State, s.Slot, s.Admitted, s.Throttled, s.Shed,
			s.AdmitP50.Round(time.Microsecond), s.AdmitP99.Round(time.Microsecond),
			s.WriteStalls, s.StoreStalls, s.StoreWriteP99.Round(time.Microsecond),
			s.Failovers, s.Checkpoints)
		if s.Err != "" {
			fmt.Printf("  error: %s\n", s.Err)
		}
	}
	fmt.Println()
	fmt.Printf("%-8s %-9s %-8s %10s %9s %11s  %s\n",
		"slot", "health", "reason", "probe-lat", "failovers", "rebalances", "tenants")
	for _, s := range doc.Slots {
		health := "healthy"
		switch {
		case !s.Healthy:
			health = "FAILED"
		case s.Slow:
			health = "SLOW"
		}
		probe := "-"
		if s.ProbeLatency > 0 {
			probe = s.ProbeLatency.Round(time.Microsecond).String()
		}
		fmt.Printf("%-8s %-9s %-8s %10s %9d %11d  %s\n",
			s.ID, health, s.Reason, probe, s.Failovers, s.Rebalances, strings.Join(s.Tenants, ","))
		if s.Err != "" {
			fmt.Printf("  cause: %s\n", s.Err)
		}
	}
	return nil
}

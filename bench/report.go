package bench

import (
	"time"
)

func perRepeat(reps []*repeat, f func(*repeat) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func pooled(reps []*repeat, f func(*repeat) []float64) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, f(r)...)
	}
	return out
}

func sumWall(reps []*repeat) time.Duration {
	var d time.Duration
	for _, r := range reps {
		d += r.wall
	}
	return d
}

func eventsPerS(r *repeat) float64 { return float64(r.tuples) / r.wall.Seconds() }

// sloMiss is the share of a paced repeat's expected results that missed
// the workload's latency limit: later than it, or not delivered at all.
// A repeat that ended more than a second of input behind is not keeping
// up at this rate and scores 1.
func (e *env) sloMiss(r *repeat) float64 {
	if r.backlog > e.w.PacedRate || r.expected == 0 {
		return 1
	}
	miss := max(r.expected-r.got, 0)
	for _, l := range r.latMs {
		if l > e.w.SLOMs {
			miss++
		}
	}
	return float64(miss) / float64(r.expected)
}

// endToEnd assembles the user-visible metrics: sat-phase rates and
// costs, paced-phase latencies, and the durability times of the
// checkpointed workloads.
func (e *env) endToEnd(setups []float64, sat, paced []*repeat, rec *repeat, res *WorkloadResult) []Metric {
	def := func(name string) MetricDef { return defByName(EndToEnd, name) }
	quant := func(name string, reps []*repeat, q float64, samples func(*repeat) []float64) Metric {
		m := summarize(def(name), perRepeat(reps, func(r *repeat) float64 { return quantile(samples(r), q) }))
		m.Samples = len(pooled(reps, samples))
		return m
	}
	lat := func(r *repeat) []float64 { return r.latMs }
	gaps := func(r *repeat) []float64 { return r.gapsMs }

	out := []Metric{
		summarize(def("setup_s"), setups),
		summarize(def("events_per_s"), perRepeat(sat, eventsPerS)),
		summarize(def("cpu_s_per_mevent"), perRepeat(sat, func(r *repeat) float64 { return r.cpu.Seconds() / float64(r.tuples) * 1e6 })),
		summarize(def("write_bytes_per_event"), perRepeat(sat, func(r *repeat) float64 { return float64(r.wchar) / float64(r.tuples) })),
		summarize(def("disk_end_mb"), perRepeat(sat, func(r *repeat) float64 { return float64(r.diskBytes) / 1e6 })),
		quant("latency_p50_ms", paced, 0.50, lat),
		quant("latency_p95_ms", paced, 0.95, lat),
	}

	// Fractions pool every repeat: one bad repeat in three must show.
	slo := summarize(def("slo_miss_frac"), perRepeat(paced, e.sloMiss))
	var expected float64
	slo.Value = 0
	for i, r := range paced {
		slo.Value += slo.Repeats[i] * float64(r.expected)
		expected += float64(r.expected)
	}
	if expected > 0 {
		slo.Value /= expected
	}
	failed := Metric{MetricDef: def("failed_frac")}
	if res.Attempted > 0 {
		failed.Value = float64(res.Failed) / float64(res.Attempted)
	}
	failed.Min, failed.Max = failed.Value, failed.Value
	out = append(out, slo, failed)

	if e.w.Mode != modeRun {
		// Quantiles of the pooled gaps: one repeat has too few commits
		// for a p90 with ten samples beyond it.
		for _, c := range []struct {
			name string
			q    float64
		}{{"commit_p50_ms", 0.50}, {"commit_p90_ms", 0.90}} {
			m := quant(c.name, sat, c.q, gaps)
			m.Value = quantile(pooled(sat, gaps), c.q)
			out = append(out, m)
		}
	}
	if rec != nil {
		out = append(out, summarize(def("recovery_ms"), rec.recoveriesMs))
	}
	return out
}

// perLayer assembles the traced run's layer metrics from what the
// benchmark's own seams counted: the traced backends, the counting
// filesystem, the source probes, the manager's snapshot and the process.
func (e *env) perLayer(ly *layers, plain, sat, paced []*repeat, rec *repeat, ladder []LadderRung) []Metric {
	v := map[string]float64{}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	traced := append(append([]*repeat(nil), sat...), paced...)
	if rec != nil {
		traced = append(traced, rec)
	}

	tot := ly.tot
	var busy int64
	for op, name := range backendOpNames {
		v["statebackend."+name+"_ops"] = float64(tot.ops[op])
		v["statebackend."+name+"_ns_op"] = div(float64(tot.ns[op]), float64(tot.ops[op]))
		busy += tot.ns[op]
	}
	var workerWall float64
	var commits, results int
	for _, r := range traced {
		workerWall += float64(r.wall) * float64(r.workers)
		commits += len(r.gapsMs)
		results += int(r.got)
	}
	v["statebackend.busy_share"] = div(float64(busy), workerWall)
	v["statebackend.errors"] = float64(tot.errors)

	c := tot.core
	v["core.hit_ratio"] = div(float64(c.hits), float64(c.hits+c.misses))
	v["core.evictions"] = float64(c.evictions)
	v["core.compactions"] = float64(c.compactions)
	v["core.write_p99_us"] = float64(c.writeP99) / 1e3
	v["core.read_p99_us"] = float64(c.readP99) / 1e3
	v["core.sync_p99_us"] = float64(c.syncP99) / 1e3
	v["core.ckpt_linked_bytes"] = float64(c.linked)
	v["core.ckpt_copied_bytes"] = float64(c.copied)
	v["core.stalls"] = float64(c.stalls)

	fs := ly.fs
	for op, name := range fsOpNames {
		v["fs."+name+"_calls"] = float64(fs.calls[op].Load())
	}
	v["fs.write_ns"] = float64(fs.ns[fsWrite].Load())
	v["fs.pread_ns"] = float64(fs.ns[fsPread].Load())
	v["fs.fsync_ns"] = float64(fs.ns[fsFsync].Load())
	v["fs.write_bytes"] = float64(fs.writeBytes.Load())
	v["fs.pread_bytes"] = float64(fs.preadBytes.Load())
	v["fs.bytes_per_write"] = div(v["fs.write_bytes"], v["fs.write_calls"])
	v["fs.fsyncs_per_commit"] = div(v["fs.fsync_calls"], float64(commits))
	v["fs.creates_per_window"] = div(v["fs.create_calls"], float64(tot.windows))

	var held, stall float64
	for _, r := range sat {
		held += float64(r.held)
		for _, g := range r.gapsMs {
			stall += g * 1e6
		}
	}
	v["spe.src_block_share"] = div(held, float64(sumWall(sat))*float64(len(e.w.Queries)))
	v["spe.commit_stall_share"] = div(stall, float64(sumWall(sat))*float64(len(e.w.Queries)))
	v["spe.commits"] = float64(commits)
	if rec != nil {
		v["spe.restore_ms"] = median(rec.restoresMs)
		v["spe.seek_ms"] = median(rec.seeksMs)
	}
	v["spe.results"] = float64(results)
	lat := pooled(paced, func(r *repeat) []float64 { return r.latMs })
	v["spe.latency_p99_ms"] = quantile(lat, 0.99)
	_, v["spe.latency_max_ms"] = minMax(lat)

	for _, r := range traced {
		for _, t := range r.tenants {
			v["jobmanager.admitted"] += float64(t.Admitted)
			v["jobmanager.throttled"] += float64(t.Throttled)
			v["jobmanager.shed"] += float64(t.Shed)
			v["jobmanager.write_stalls"] += float64(t.WriteStalls)
			v["jobmanager.failovers"] += float64(t.Failovers)
			v["jobmanager.admit_p99_us"] = max(v["jobmanager.admit_p99_us"], float64(t.AdmitP99)/1e3)
		}
	}

	v["gen.lag_p95_ms"] = quantile(pooled(paced, func(r *repeat) []float64 { return r.lagMs }), 0.95)
	for _, r := range paced {
		v["gen.backlog_end_events"] = max(v["gen.backlog_end_events"], r.backlog)
	}

	var tuples, allocB, allocs, gc, cpu float64
	for _, r := range sat {
		tuples += float64(r.tuples)
		allocB += float64(r.allocB)
		allocs += float64(r.allocs)
		gc += r.gcCPU
		cpu += r.cpu.Seconds()
	}
	v["proc.alloc_bytes_per_event"] = div(allocB, tuples)
	v["proc.allocs_per_event"] = div(allocs, tuples)
	v["proc.gc_cpu_share"] = div(gc, cpu)
	v["proc.peak_rss_mb"] = float64(sampleProc().maxRSSKB) / 1e3

	v["trace.overhead_frac"] = 1 - div(median(perRepeat(sat, eventsPerS)), median(perRepeat(plain, eventsPerS)))
	ly.tr.mu.Lock()
	v["trace.spans_dropped"] = float64(ly.tr.dropped)
	ly.tr.mu.Unlock()

	out := make([]Metric, 0, len(PerLayer))
	for _, d := range PerLayer {
		m := Metric{MetricDef: d, Value: v[d.Name]}
		m.Min, m.Max = m.Value, m.Value
		out = append(out, m)
	}
	byName := map[string]*Metric{}
	for i := range out {
		byName[out[i].Name] = &out[i]
	}
	for _, rung := range ladder {
		*byName["ladder."+rung.Rung+".ns_op"] = summarize(defByName(PerLayer, "ladder."+rung.Rung+".ns_op"), rung.NsOp)
		*byName["ladder."+rung.Rung+".allocs_op"] = summarize(defByName(PerLayer, "ladder."+rung.Rung+".allocs_op"), rung.AllocsOp)
	}
	return out
}

package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/metrics"
	"flowkv/internal/window"
)

// The -delta benchmark prices durability as state grows: a store ingests
// a constant-size batch per round for many rounds (so live state at the
// last barrier is ~rounds× the state at the first) and commits a
// checkpoint at every barrier under three modes — "full" calls
// Checkpoint, the parentless base path, which rewrites the whole store
// each time, "incr" hard-links the parent's sealed segments
// and rewrites only the delta but still fsyncs each file as it is
// written, and "incr+group" additionally batches all fsyncs into one
// group-commit window per barrier. The claim under test: full commit
// cost grows with total state while incremental commit cost tracks the
// per-barrier delta and stays flat as state grows 100x.

type deltaPoint struct {
	Round       int     `json:"round"`
	CommitBytes int64   `json:"commit_bytes"`
	LatencyMS   float64 `json:"latency_ms"`
}

type deltaModeResult struct {
	Pattern          string       `json:"pattern"`
	Mode             string       `json:"mode"`
	Rounds           int          `json:"rounds"`
	FirstCommitBytes int64        `json:"first_commit_bytes"`
	LastCommitBytes  int64        `json:"last_commit_bytes"`
	GrowthRatio      float64      `json:"growth_ratio"`
	TotalCommitBytes int64        `json:"total_commit_bytes"`
	P99LatencyMS     float64      `json:"p99_latency_ms"`
	Points           []deltaPoint `json:"points"`
}

type deltaReport struct {
	Rounds      int               `json:"rounds"`
	OpsPerRound int               `json:"ops_per_round"`
	Instances   int               `json:"instances"`
	Results     []deltaModeResult `json:"results"`
}

func runDeltaBench(base string, ops int, jsonPath string) {
	const rounds = 100
	const instances = 4
	perRound := ops / rounds
	if perRound < 100 {
		perRound = 100
	}
	tb := metrics.NewTable("pattern", "mode", "rounds", "commit@1", "commit@100", "growth", "p99 commit")
	rep := deltaReport{Rounds: rounds, OpsPerRound: perRound, Instances: instances}
	for _, p := range []core.Pattern{core.PatternAAR, core.PatternAUR, core.PatternRMW} {
		for _, mode := range []string{"full", "incr", "incr+group"} {
			r := runDeltaWorkload(base, p, mode, rounds, perRound, instances)
			rep.Results = append(rep.Results, r)
			tb.AddRow(r.Pattern, r.Mode, r.Rounds,
				metrics.FormatBytes(r.FirstCommitBytes),
				metrics.FormatBytes(r.LastCommitBytes),
				fmt.Sprintf("%.2fx", r.GrowthRatio),
				time.Duration(r.P99LatencyMS*float64(time.Millisecond)).Round(10*time.Microsecond))
		}
	}
	fmt.Print(tb)
	if jsonPath != "" {
		mergeJSON(jsonPath, "delta", rep)
	}
}

// mergeJSON sets key in the JSON object stored at path (creating the
// file, or replacing a non-object, as needed), preserving other keys so
// the delta report can live alongside the -parallel report in one file.
func mergeJSON(path, key string, v any) {
	doc := map[string]json.RawMessage{}
	if b, err := os.ReadFile(path); err == nil {
		json.Unmarshal(b, &doc)
	}
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	doc[key] = b
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func runDeltaWorkload(base string, p core.Pattern, mode string, rounds, perRound, instances int) deltaModeResult {
	dir := filepath.Join(base, fmt.Sprintf("delta-%s-%s", p, mode))
	wkind := window.Fixed
	if p == core.PatternAUR {
		wkind = window.Session
	}
	opts := core.Options{
		Dir:              dir,
		Instances:        instances,
		WriteBufferBytes: 4 << 20,
		Predictor:        window.SessionPredictor{Gap: 1000},
		// Chain length is the rebase cadence; the bench measures the
		// steady incremental price, so keep the whole run on one chain.
		MaxDeltaChain:      rounds + 1,
		DisableGroupCommit: mode == "incr",
	}
	st, err := core.OpenPattern(p, wkind, opts)
	if err != nil {
		fatal(err)
	}
	defer st.Destroy()

	ckRoot := filepath.Join(base, fmt.Sprintf("delta-ck-%s-%s", p, mode))
	if err := os.MkdirAll(ckRoot, 0o755); err != nil {
		fatal(err)
	}
	val := make([]byte, 84)
	w := window.Window{Start: 0, End: 1 << 40}
	res := deltaModeResult{Pattern: p.String(), Mode: mode, Rounds: rounds}
	var lats []time.Duration
	var prevCopied int64
	parent, grandparent := "", ""
	seq := 0
	for r := 1; r <= rounds; r++ {
		// Constant-size batch of fresh keys: live state grows linearly,
		// so the last barrier sees ~rounds× the first barrier's state
		// while the per-barrier delta stays fixed.
		for i := 0; i < perRound; i++ {
			key := []byte(fmt.Sprintf("key-%09d", seq))
			seq++
			switch p {
			case core.PatternRMW:
				var agg [8]byte
				binary.LittleEndian.PutUint64(agg[:], uint64(seq))
				err = st.PutAggregate(key, w, agg[:])
			default:
				err = st.Append(key, val, w, int64(seq))
			}
			if err != nil {
				fatal(err)
			}
		}
		ck := filepath.Join(ckRoot, fmt.Sprintf("gen-%06d", r))
		t0 := time.Now()
		if mode == "full" {
			err = st.Checkpoint(ck)
		} else {
			err = st.CheckpointDelta(ck, parent, nil)
		}
		lat := time.Since(t0)
		if err != nil {
			fatal(err)
		}
		lats = append(lats, lat)
		copied := st.Stats().CkptCopiedBytes
		commitBytes := copied - prevCopied
		prevCopied = copied
		if r == 1 {
			res.FirstCommitBytes = commitBytes
		}
		res.LastCommitBytes = commitBytes
		res.TotalCommitBytes += commitBytes
		if r == 1 || r == rounds/10 || r == rounds {
			res.Points = append(res.Points, deltaPoint{
				Round:       r,
				CommitBytes: commitBytes,
				LatencyMS:   float64(lat) / float64(time.Millisecond),
			})
		}
		// Checkpoint dirs are self-contained (hard links), so only the
		// immediate parent is needed for the next delta; prune the rest
		// to bound the bench's disk footprint.
		if grandparent != "" {
			os.RemoveAll(grandparent)
		}
		grandparent, parent = parent, ck
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.P99LatencyMS = float64(lats[len(lats)*99/100]) / float64(time.Millisecond)
	}
	if res.FirstCommitBytes > 0 {
		res.GrowthRatio = float64(res.LastCommitBytes) / float64(res.FirstCommitBytes)
	}
	return res
}

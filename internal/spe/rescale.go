package spe

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"flowkv/internal/core"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// One model of a committed generation. Commit writes one cut per
// stateful stage worker — gen-<G>/sSS-wWW (cutDirName) — and a JOB
// record whose StagePars is the key-range manifest: worker w of stage s
// held exactly the keys with routeKey(key, StagePars[s]) == w. Everything that moves keyed
// state between workers is one operation over that model: route every
// key to its new owner.
//
//   - Store state (AAR/AUR/RMW): a cut is restored into a scratch store,
//     enumerated entry by entry (core.ForEachState — non-destructive, so
//     the committed cut stays intact for a crash mid-move), and every
//     entry is re-appended into the backend of its key's owner
//     (rerouteCut). Appended values keep their order (one cut held all
//     values of a key), and window boundaries move wholesale with their
//     key.
//   - Operator snapshots: each is decoded against the identities its
//     cut's store enumerated, and regroup sends every keyed registry
//     entry to its owner.
//
// Resume at another parallelism reroutes every committed cut of a stage
// by routeKey at the new worker count; a live migration (migrate.go)
// splits one bucket out of its source and merges it into the
// destination. Replay then proceeds from the committed source offset
// exactly as a same-parallelism resume: barriers land at the same source
// offsets and watermarks at the same tuples (the cadence is
// parallelism-independent), so the committed ledger stays byte-identical
// to an uninterrupted run at either parallelism.

// opSnapshotter is the snapshot/restore contract job checkpoints need
// from a stateful operator. WindowOperator and IntervalJoinOperator
// implement it.
type opSnapshotter interface {
	statefulOperator
	snapshotState() []byte
	// restoreState decodes a snapshot against ids, the identities of the
	// store restored with it when claimsIdentities, else nil.
	restoreState(snap []byte, ids []core.Identity) error
	// claimsIdentities reports whether the operator's snapshots name
	// its state by the store's identities, so a restore must list them.
	claimsIdentities() bool
	// adopt installs a regrouped shell's registries and counters in
	// place and re-derives the scheduling structures from them.
	adopt(from opSnapshotter)
	// setBackend swaps the operator's state backend in place — the live
	// migration path rebuilds a parked worker's store and re-points the
	// operator at it without reconstructing the operator.
	setBackend(statebackend.Backend)
	// regroupInto hands every keyed registry entry of the operator to
	// outs[owner(key)], adds the lifetime counters onto outs[0], and
	// raises every output's watermark to its own. outs are emptyOpState
	// shells of the same operator kind.
	regroupInto(outs []opSnapshotter, owner func(key string) int)
}

var (
	_ opSnapshotter = (*WindowOperator)(nil)
	_ opSnapshotter = (*IntervalJoinOperator)(nil)
)

// scratchName is the scratch store a reroute restores a cut into, under
// the job directory; rescaling resume and live migration share it. It
// is cleared before each use and removed after; a crash mid-reroute
// leaves it for the next run to clear.
const scratchName = ".migscratch"

// regroup is the one key-regrouping primitive over operator states: it
// distributes ins over n new shells under three rules. Every keyed
// registry entry — aligned key sets, sessions, custom windows and count
// cursors; both sides' bucket keys for a join, which hold user keys —
// goes to output owner(key). Every output gets the largest input
// watermark (equal across workers at a barrier). Lifetime counters
// (results, late drops, triggers) sum onto output 0, so job-level totals
// are unchanged. The outputs share registry entries with ins, whose own
// registries are not used after (adopt replaces a live input's).
//
// Rescale, migration split and migration merge are all this call:
//
//	rescale: regroup(committed, par, routeKey at par, join)
//	split:   regroup([src], 2, moved bucket -> 1, join)
//	merge:   regroup([dst, move], 1, all -> 0, join)
//
// A split keeps the counters on the side that stays (output 0), and a
// merge adds the moved side's zero counters.
func regroup(ins []opSnapshotter, n int, owner func(key string) int, join bool) []opSnapshotter {
	outs := make([]opSnapshotter, n)
	for i := range outs {
		outs[i] = emptyOpState(join)
	}
	for _, in := range ins {
		in.regroupInto(outs, owner)
	}
	return outs
}

// emptyOpState is an operator shell with empty registries and the
// lowest watermark — what regroupInto adds onto. It is only ever
// adopted, encoded or decoded into; it never runs.
func emptyOpState(join bool) opSnapshotter {
	if join {
		return &IntervalJoinOperator{
			wm:      math.MinInt64,
			buckets: map[Side]map[window.Window]map[string]struct{}{Left: {}, Right: {}},
		}
	}
	return &WindowOperator{
		wm:       math.MinInt64,
		aligned:  make(map[window.Window]map[string]struct{}),
		sessions: make(map[string][]*session),
		custom:   make(map[string]map[window.Window]int64),
		counts:   make(map[string]int64),
	}
}

func (o *WindowOperator) regroupInto(outs []opSnapshotter, owner func(key string) int) {
	to := func(k string) *WindowOperator { return outs[owner(k)].(*WindowOperator) }
	for w, keys := range o.aligned {
		for k := range keys {
			addKey(to(k).aligned, w, k)
		}
	}
	for k, list := range o.sessions {
		to(k).sessions[k] = list
	}
	for k, set := range o.custom {
		to(k).custom[k] = set
	}
	for k, n := range o.counts {
		to(k).counts[k] = n
	}
	for _, out := range outs {
		out := out.(*WindowOperator)
		out.wm = max(out.wm, o.wm)
	}
	o0 := outs[0].(*WindowOperator)
	o0.resultsEmitted += o.resultsEmitted
	o0.lateDropped += o.lateDropped
	o0.triggersFired += o.triggersFired
}

func (o *IntervalJoinOperator) regroupInto(outs []opSnapshotter, owner func(key string) int) {
	for _, side := range []Side{Left, Right} {
		for w, keys := range o.buckets[side] {
			for k := range keys {
				addKey(outs[owner(k)].(*IntervalJoinOperator).buckets[side], w, k)
			}
		}
	}
	for _, out := range outs {
		out := out.(*IntervalJoinOperator)
		out.wm = max(out.wm, o.wm)
	}
	o0 := outs[0].(*IntervalJoinOperator)
	o0.results += o.results
	o0.late += o.late
}

// addKey adds key k to window w's key set in reg.
func addKey(reg map[window.Window]map[string]struct{}, w window.Window, k string) {
	set := reg[w]
	if set == nil {
		set = make(map[string]struct{})
		reg[w] = set
	}
	set[k] = struct{}{}
}

// rerouteCut restores one committed cut into the scratch store and
// re-appends every live unit of its state into backends[owner(key)],
// returning the operator snapshot the cut carried and, when ids is set,
// the identities it enumerated, sorted by core.CompareIdentities. owner
// maps a user key: join state lives under side-tagged backend keys, and
// its owner is decided by the user key, as live routing does. The cut is
// only read, never modified — a crash mid-reroute leaves it intact for
// the next Resume.
func (jr *jobRun) rerouteCut(cpDir string, backends []statebackend.Backend, owner func(key []byte) int, join, ids bool) ([]byte, []core.Identity, error) {
	pat, inst, err := core.VerifyCheckpointDir(jr.fsys, cpDir)
	if err != nil {
		return nil, nil, err
	}
	scratch := filepath.Join(jr.j.Dir, scratchName)
	if err := jr.fsys.RemoveAll(scratch); err != nil {
		return nil, nil, err
	}
	defer jr.fsys.RemoveAll(scratch)
	st, err := core.OpenPattern(pat, window.Custom, core.Options{
		Dir:       scratch,
		Instances: inst,
		FS:        jr.fsys,
	})
	if err != nil {
		return nil, nil, err
	}
	snap, rerr := st.RestoreWithMeta(cpDir)
	if rerr != nil {
		st.Destroy()
		return nil, nil, rerr
	}
	var listed []core.Identity
	ferr := st.ForEachState(func(e core.StateEntry) error {
		if ids {
			listed = append(listed, core.Identity{Key: string(e.Key), Window: e.Window})
		}
		user := e.Key
		if join {
			user = sideKeyUser(e.Key)
		}
		nb := backends[owner(user)]
		if e.HasAgg {
			return nb.PutAgg(e.Key, e.Window, e.Agg)
		}
		for _, v := range e.Values {
			if err := nb.Append(e.Key, v, e.Window, e.MaxTS); err != nil {
				return err
			}
		}
		return nil
	})
	derr := st.Destroy()
	if ferr != nil {
		return nil, nil, ferr
	}
	if derr != nil {
		return nil, nil, derr
	}
	slices.SortFunc(listed, core.CompareIdentities)
	return snap, listed, nil
}

// cutDirName names worker w's cut of stage si inside a generation
// directory.
func cutDirName(si, w int) string {
	return fmt.Sprintf("s%02d-w%02d", si, w)
}

// ParseCutDir is cutDirName's inverse: the stage and worker a generation
// entry names; ok is false for any other name.
func ParseCutDir(name string) (si, w int, ok bool) {
	if _, err := fmt.Sscanf(name, "s%d-w%d", &si, &w); err != nil {
		return 0, 0, false
	}
	return si, w, si >= 0 && w >= 0 && cutDirName(si, w) == name
}

// StageCuts counts the worker cuts among a generation directory's
// entries by stage and checks them against the key-range manifest: every
// cut must name a recorded stage, and a stage must hold exactly one cut
// per committed worker, StagePars[si]. Other entries are ignored.
func StageCuts(ents []os.DirEntry, stagePars []int64) (map[int]int, error) {
	cuts := make(map[int]int)
	for _, e := range ents {
		si, w, ok := ParseCutDir(e.Name())
		if !ok || !e.IsDir() {
			continue
		}
		if si >= len(stagePars) || int64(w) >= stagePars[si] {
			return nil, fmt.Errorf("spe: cut %s is outside the key-range manifest %v", e.Name(), stagePars)
		}
		cuts[si]++
	}
	for si, n := range cuts {
		if int64(n) != stagePars[si] {
			return nil, fmt.Errorf("spe: stage %d holds %d of its %d committed worker cuts", si, n, stagePars[si])
		}
	}
	return cuts, nil
}

// WorkerForKey reports which worker of a par-way stage owns key — the
// hash partition that doubles as the checkpoint key-range manifest.
func WorkerForKey(key []byte, par int) int { return routeKey(key, par) }

package spe

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// snapHeader is a window-operator snapshot up to its aligned-window count:
// magic, watermark and counters.
func snapHeader() []byte {
	b := []byte(opSnapMagic)
	for i := 0; i < 4; i++ {
		b = binio.PutVarint(b, 0)
	}
	return b
}

// oneIdentity is the identity list of one session, and sessionsOf
// appends a session section claiming it with an empty aligned section
// before: the prefix a session-section seed extends.
var oneIdentity = []core.Identity{{Key: "k", Window: window.Window{Start: 0, End: 10}}}

func sessionsOf(b []byte) []byte {
	b = binio.PutUvarint(binio.PutUvarint(b, 0), 1) // no aligned windows; one identity
	return binio.PutUint32(b, identityCRC(1, func(int) core.Identity { return oneIdentity[0] }))
}

// corruptSnap is a snapshot and the identity list it is decoded against.
type corruptSnap struct {
	b   []byte
	ids []core.Identity
}

// corruptCountSnapshots are short inputs whose counts name far more
// elements than the bytes behind them could hold.
func corruptCountSnapshots() map[string]corruptSnap {
	keyK := func(b []byte) []byte { return binio.PutString(binio.PutUvarint(b, 0), "k") }
	huge := func(b []byte) []byte { return binio.PutUvarint(b, 1<<40) }
	noSessions := func(b []byte) []byte { return binio.PutUvarint(binio.PutUvarint(b, 0), 0) }
	join := []byte(joinSnapMagic)
	return map[string]corruptSnap{
		"aligned windows":   {huge(snapHeader()), nil},
		"aligned key set":   {huge(binio.PutVarint(binio.PutVarint(binio.PutUvarint(snapHeader(), 1), 0), 10)), nil},
		"further initials":  {huge(sessionsOf(snapHeader())), oneIdentity},
		"initials of one":   {huge(binio.PutUvarint(binio.PutUvarint(sessionsOf(snapHeader()), 1), 0)), oneIdentity},
		"extended sessions": {huge(binio.PutUvarint(sessionsOf(snapHeader()), 0)), oneIdentity},
		"session orders":    {huge(binio.PutUvarint(binio.PutUvarint(sessionsOf(snapHeader()), 0), 0)), oneIdentity},
		"join buckets":      {huge(binio.PutVarint(binio.PutVarint(binio.PutVarint(join, 0), 0), 0)), nil},
		"join key set":      {huge(binio.PutVarint(binio.PutVarint(binio.PutUvarint(binio.PutVarint(binio.PutVarint(binio.PutVarint(join, 0), 0), 0), 1), 0), 10)), nil},
		"custom windows":    {huge(keyK(binio.PutUvarint(noSessions(snapHeader()), 1))), nil},
		"counted elements":  {huge(binio.PutUvarint(noSessions(snapHeader()), 0)), nil},
	}
}

// restoreAny decodes b into a fresh operator of the kind its magic
// names.
func restoreAny(b []byte, ids []core.Identity) error {
	if strings.HasPrefix(string(b), joinSnapMagic) {
		return (&IntervalJoinOperator{}).restoreState(b, nil)
	}
	return (&WindowOperator{}).restoreState(b, ids)
}

// TestOperatorSnapshotCorruptCountFailsFast: a count that decodes as 2^40
// in any position — the 40-byte input that used to spin appending
// sessions — is rejected at once, without a loop over it.
func TestOperatorSnapshotCorruptCountFailsFast(t *testing.T) {
	for name, c := range corruptCountSnapshots() {
		err := restoreAny(c.b, c.ids)
		if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: a 2^40 count in %d bytes: %v, want a typed rejection", name, len(c.b), err)
		}
	}
}

// TestOperatorSnapshotRejectsOldFormat: snapshots of the previous
// encodings — opsnap1, opsnap2 (sessions written whole), joinsnap1 —
// fail as a typed "bad magic"; a job directory that holds them does not
// resume.
func TestOperatorSnapshotRejectsOldFormat(t *testing.T) {
	for _, magic := range []string{"flowkv-opsnap1\n", "flowkv-opsnap2\n", "flowkv-joinsnap1\n"} {
		old := binio.PutVarint([]byte(magic), 0)
		for _, op := range []opSnapshotter{&WindowOperator{}, &IntervalJoinOperator{}} {
			err := op.restoreState(old, nil)
			if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "bad magic") {
				t.Errorf("%q restored into %T: %v, want a typed bad magic", strings.TrimSpace(magic), op, err)
			}
		}
	}
}

// sessionSection is the size of o's session section: its snapshot less
// the same snapshot without sessions.
func sessionSection(o *WindowOperator) int {
	sessions := o.sessions
	full := len(o.snapshotState())
	o.sessions = nil
	defer func() { o.sessions = sessions }()
	return full - len(o.snapshotState()) + 1 // the empty section's count byte
}

// TestOperatorSnapshotSessionsAreRelative: a session is named by its
// store identity, so a session that ran past its initial window costs its
// ordinal gap and its two edges' offsets from that window, however large
// its timestamps, and a single-tuple session costs nothing.
func TestOperatorSnapshotSessionsAreRelative(t *testing.T) {
	extended := func(start int64) *WindowOperator {
		o := emptyOpState(false).(*WindowOperator)
		init := window.Window{Start: start, End: start + 25000}
		o.sessions["k"] = []*session{{cur: window.Window{Start: start, End: start + 31000}, initials: []window.Window{init}}}
		return o
	}
	small, large := sessionSection(extended(7)), sessionSection(extended(1_700_000_000_000))
	if small != large {
		t.Fatalf("an extended session costs %d bytes at a small timestamp and %d at a large one", small, large)
	}
	// Identity count 1, CRC 4, three list counts 3; the extended entry:
	// gap 1, start offset 1 (0), end offset 2 (6000).
	if want := 1 + 4 + 3 + 1 + 1 + 2; small != want {
		t.Fatalf("one extended session's section is %d bytes, want %d", small, want)
	}
	single := emptyOpState(false).(*WindowOperator)
	single.sessions["k"] = []*session{{cur: window.Window{Start: 7, End: 25007}, initials: []window.Window{{Start: 7, End: 25007}}}}
	if got, want := sessionSection(single), 1+4+3; got != want {
		t.Fatalf("one single-tuple session's section is %d bytes, want %d", got, want)
	}
}

// fixedSessionMix is an operator state holding one of each session
// shape: single-tuple keys, an extended session, a key with two sessions
// out of primary order, and a holistic session that merged three
// initials.
func fixedSessionMix() *WindowOperator {
	o := emptyOpState(false).(*WindowOperator)
	o.wm, o.resultsEmitted, o.lateDropped, o.triggersFired = 41_000, 17, 2, 19
	w := func(start, end int64) window.Window { return window.Window{Start: start, End: end} }
	for i, k := range []string{"auction-0001", "auction-0002", "auction-0017"} {
		iw := w(int64(10_000+i*300), int64(35_000+i*300))
		o.sessions[k] = []*session{{cur: iw, initials: []window.Window{iw}}}
	}
	o.sessions["auction-0003"] = []*session{{cur: w(12_000, 52_500), initials: []window.Window{w(12_000, 37_000)}}}
	o.sessions["auction-0004"] = []*session{
		{cur: w(60_000, 85_000), initials: []window.Window{w(60_000, 85_000)}},
		{cur: w(20_000, 47_000), initials: []window.Window{w(20_000, 45_000)}},
	}
	o.sessions["bidder-9"] = []*session{{
		cur:      w(30_000, 80_000),
		initials: []window.Window{w(40_000, 65_000), w(30_000, 55_000), w(55_000, 80_000)},
	}}
	return o
}

// TestOperatorSnapshotSessionBudget: a single-tuple session adds no byte
// to the session section, beside any mix of others, and the section of
// a fixed mix is pinned by its CRC, so a change to the encoding shows.
func TestOperatorSnapshotSessionBudget(t *testing.T) {
	o := fixedSessionMix()
	before := sessionSection(o)
	for _, k := range []string{"a", "auction-0003a", "zz"} {
		o.sessions[k] = []*session{{cur: window.Window{Start: 5, End: 30}, initials: []window.Window{{Start: 5, End: 30}}}}
		if after := sessionSection(o); after != before {
			t.Fatalf("single-tuple session %q grew the session section from %d to %d bytes", k, before, after)
		}
	}

	snap := reencode(t, fixedSessionMix(), false)
	const wantLen, wantCRC = 55, 0xbbd96b8d
	if len(snap) != wantLen || binio.Checksum(snap) != wantCRC {
		t.Fatalf("the fixed mix encodes to %d bytes, CRC %#08x; pinned %d bytes, CRC %#08x", len(snap), binio.Checksum(snap), wantLen, wantCRC)
	}
}

// encodeIdentities and decodeIdentities carry a fuzz input's identity
// list: a count, then per identity its key and window.
func encodeIdentities(ids []core.Identity) []byte {
	b := binio.PutUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		b = id.Window.AppendTo(binio.PutString(b, id.Key))
	}
	return b
}

func decodeIdentities(b []byte) []core.Identity {
	d := snapDecoder{b: b}
	var ids []core.Identity
	for n := d.count(3); n > 0 && d.err == nil; n-- {
		id := core.Identity{Key: d.str(), Window: d.window()}
		if d.err == nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// realOpSnapshot runs a small session job, kills it with sessions still
// live, and returns a worker's committed operator snapshot (its appmeta) with
// the identities its cut restores — a seed drawn from the real commit
// path.
func realOpSnapshot(f *testing.F) ([]byte, []core.Identity) {
	f.Helper()
	base := f.TempDir()
	job := &Job{
		Pipeline:        crashPipeline(crashPatterns()[1], filepath.Join(base, "state"), nil, 1<<10),
		Source:          NewSliceSource(crashTuples(300)),
		Dir:             filepath.Join(base, "job"),
		CheckpointEvery: 61,
		KillAfterTuples: 250,
	}
	if _, err := job.Run(); !errors.Is(err, ErrJobKilled) {
		f.Fatalf("seed job: %v", err)
	}
	meta, err := ReadJobMeta(nil, job.Dir)
	if err != nil {
		f.Fatal(err)
	}
	snap, ids, err := cutState(filepath.Join(job.Dir, GenDirName(meta.Gen), cutDirName(1, 0)), filepath.Join(base, "scratch"))
	if err != nil {
		f.Fatalf("seed snapshot: %v", err)
	}
	return snap, ids
}

// cutState restores the cut in dir into a scratch store under scratch and
// returns the operator snapshot it carries and the identities it holds.
func cutState(dir, scratch string) ([]byte, []core.Identity, error) {
	pat, inst, err := core.VerifyCheckpointDir(nil, dir)
	if err != nil {
		return nil, nil, err
	}
	st, err := core.OpenPattern(pat, window.Session, core.Options{Dir: scratch, Instances: inst})
	if err != nil {
		return nil, nil, err
	}
	defer st.Destroy()
	snap, err := st.RestoreWithMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	ids, err := st.Identities()
	return snap, ids, err
}

// FuzzDecodeOperatorSnapshot feeds arbitrary identity lists and bytes to
// both operator snapshot decoders, window and interval join. Resume,
// rescale and migration all restore through them, so they must never
// panic or hang — every count is bounded by the bytes left — and since
// the encoding is canonical, any input a decoder accepts against an
// identity list must re-encode to exactly itself through snapshotState.
func FuzzDecodeOperatorSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(0x0b5))
	add := func(op opSnapshotter) { f.Add(encodeIdentities(identitiesOf(op)), op.snapshotState()) }
	for i := 0; i < 6; i++ {
		add(randomOpState(rng, i%2 == 1))
	}
	add(emptyOpState(false))
	add(emptyOpState(true))
	add(fixedSessionMix())
	real, ids := realOpSnapshot(f)
	f.Add(encodeIdentities(ids), real)
	f.Add(encodeIdentities(ids), real[:len(real)/2])
	f.Add(encodeIdentities(ids[1:]), real)
	for _, c := range corruptCountSnapshots() {
		f.Add(encodeIdentities(c.ids), c.b)
	}
	f.Fuzz(func(t *testing.T, idb, b []byte) {
		ids := decodeIdentities(idb)
		for _, op := range []opSnapshotter{&WindowOperator{}, &IntervalJoinOperator{}} {
			if op.restoreState(b, ids) != nil {
				continue
			}
			if re := op.snapshotState(); !bytes.Equal(re, b) {
				t.Fatalf("%T accepted a snapshot that re-encodes differently:\n%x\n%x", op, b, re)
			}
		}
	})
}

// sessionPatterns are the session operators, whose snapshots name their
// sessions by the store's identities: holistic over AUR, incremental
// over RMW.
func sessionPatterns() []crashPattern {
	return []crashPattern{
		crashPatterns()[1],
		{"RMW-session", core.AggIncremental, window.Session,
			OperatorSpec{Assigner: window.SessionAssigner{Gap: 100}, Incremental: crashIncremental}},
	}
}

// tamperCut rewrites the cut in dir as a valid cut of another pairing:
// its store less one identity (drop), or its store under the appmeta of
// the cut in metaFrom.
func tamperCut(t *testing.T, dir, metaFrom string, drop bool) {
	t.Helper()
	pat, inst, err := core.VerifyCheckpointDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.OpenPattern(pat, window.Session, core.Options{Dir: t.TempDir(), Instances: inst})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Destroy()
	meta, err := st.RestoreWithMeta(dir)
	if err == nil && metaFrom != "" {
		meta, err = core.ReadCheckpointMeta(nil, metaFrom)
	}
	if err != nil {
		t.Fatal(err)
	}
	if drop {
		ids, err := st.Identities()
		if err != nil || len(ids) == 0 {
			t.Fatalf("cut %s holds no identity to drop (%v)", dir, err)
		}
		id := ids[len(ids)/2]
		if pat == core.PatternRMW {
			_, _, err = st.GetAggregate([]byte(id.Key), id.Window)
		} else {
			_, err = st.Get([]byte(id.Key), id.Window)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	out := dir + ".tampered"
	if err := st.CheckpointWithMeta(out, meta); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(out, dir); err != nil {
		t.Fatal(err)
	}
}

// tamperFS runs tamper once, when the first reroute of a live
// migration's import clears its scratch store, and fails that call, so
// the migration rolls both workers back from its cuts.
type tamperFS struct {
	faultfs.FS
	job    string
	tamper func(migDir string)
	done   bool
}

func (f *tamperFS) RemoveAll(path string) error {
	if !f.done && filepath.Base(path) == scratchName {
		cuts, _ := filepath.Glob(filepath.Join(f.job, migDirPrefix+"*", "cut"))
		if len(cuts) > 0 {
			f.done = true
			f.tamper(filepath.Dir(cuts[0]))
			return faultfs.ErrInjected
		}
	}
	return f.FS.RemoveAll(path)
}

// TestOperatorSnapshotMismatchFailsTyped: a restore whose appmeta and
// store disagree — an identity removed from the cut, or the appmeta of
// another cut — fails with ErrSnapshotMismatch, never with a silently
// wrong session registry, through every restore source: a resume at the
// committed parallelism, a rescaling resume, and a live migration's
// rollback.
func TestOperatorSnapshotMismatchFailsTyped(t *testing.T) {
	// The decoder itself: the fixed mix against its own list restores;
	// against a list one identity shorter, or as long but with one window
	// moved (only the CRC tells), it fails typed.
	mix := fixedSessionMix()
	snap, ids := mix.snapshotState(), identitiesOf(mix)
	moved := slices.Clone(ids)
	moved[3].Window.End++
	for name, list := range map[string][]core.Identity{"own": ids, "shorter": ids[1:], "moved": moved} {
		err := (&WindowOperator{}).restoreState(snap, list)
		if name == "own" && err != nil || name != "own" && !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("the fixed mix against the %s identity list: %v", name, err)
		}
	}

	tuples := crashTuples(300)
	for _, pat := range sessionPatterns() {
		// "none" is the control: the same legs over untouched cuts
		// restore, and the rolled-back migration lets the run finish.
		for _, tamper := range []string{"none", "identity-removed", "foreign-appmeta"} {
			pat, tamper := pat, tamper
			// tamperIn rewrites cut "cut" of dir, taking a foreign appmeta
			// from "other".
			tamperIn := func(t *testing.T, dir, cut, other string) {
				switch tamper {
				case "identity-removed":
					tamperCut(t, filepath.Join(dir, cut), "", true)
				case "foreign-appmeta":
					tamperCut(t, filepath.Join(dir, cut), filepath.Join(dir, other), false)
				}
			}
			want := func(err error) bool {
				if tamper == "none" {
					return err == nil
				}
				return errors.Is(err, ErrSnapshotMismatch)
			}
			for _, par := range []int{2, 3} {
				leg := "resume"
				if par != 2 {
					leg = "rescale"
				}
				t.Run(pat.name+"/"+tamper+"/"+leg, func(t *testing.T) {
					base := t.TempDir()
					mk := func(par int, kill int64) *Job {
						p := crashPipeline(pat, filepath.Join(base, "state"), nil, 1<<10)
						p.Stages[1].Parallelism = par
						return &Job{Pipeline: p, Source: NewSliceSource(tuples), Dir: filepath.Join(base, "job"),
							CheckpointEvery: 61, KillAfterTuples: kill}
					}
					if _, err := mk(2, 250).Run(); !errors.Is(err, ErrJobKilled) {
						t.Fatalf("first run: %v", err)
					}
					meta, err := ReadJobMeta(nil, filepath.Join(base, "job"))
					if err != nil {
						t.Fatal(err)
					}
					tamperIn(t, filepath.Join(base, "job", GenDirName(meta.Gen)), cutDirName(1, 0), cutDirName(1, 1))
					if _, err := mk(par, 0).Resume(); !want(err) {
						t.Fatalf("resume at par %d over a cut with %s: %v", par, tamper, err)
					}
					if tamper == "none" {
						checkLedger(t, filepath.Join(base, "job"), goldenLedger(t, pat, tuples, 61, 1<<10))
					}
				})
			}
			t.Run(pat.name+"/"+tamper+"/rollback", func(t *testing.T) {
				base := t.TempDir()
				fsys := &tamperFS{FS: faultfs.OS, job: filepath.Join(base, "job"), tamper: func(mig string) {
					tamperIn(t, mig, "cut", "dcut")
				}}
				job := &Job{
					Pipeline:        crashPipeline(pat, filepath.Join(base, "state"), nil, 1<<10),
					Source:          NewSliceSource(tuples),
					Dir:             fsys.job,
					FS:              fsys,
					CheckpointEvery: 61,
					Migrations:      migSwap()[:1],
				}
				if _, err := job.Run(); !fsys.done || !want(err) {
					t.Fatalf("rollback from a cut with %s (import failed: %v): %v", tamper, fsys.done, err)
				}
				if tamper == "none" {
					checkLedger(t, job.Dir, goldenLedger(t, pat, tuples, 61, 1<<10))
				}
			})
		}
	}
}

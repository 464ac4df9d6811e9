package statebackend

import "flowkv/internal/core"

// Checkpointer is the optional backend capability jobs require: a
// crash-consistent snapshot of the backend's durable state into a
// directory, carrying opaque application metadata (operator control
// state, source offsets) that commits atomically with the store cut.
// Only the FlowKV backend implements it today; jobs fail stages whose
// backends do not.
type Checkpointer interface {
	// CheckpointMeta writes a verified snapshot of the backend into dir
	// along with meta; the snapshot commits atomically (a crash leaves
	// either the previous checkpoint or the new one, never a blend).
	CheckpointMeta(dir string, meta []byte) error
	// RestoreMeta rebuilds the backend from a checkpoint directory and
	// returns the metadata it was taken with. The backend must be
	// freshly opened and empty.
	RestoreMeta(dir string) ([]byte, error)
}

// DeltaCheckpointer is the incremental refinement of Checkpointer: the
// snapshot into dir is priced against the checkpoint at parent — bytes
// the parent already persisted are hard-linked rather than rewritten,
// and the per-barrier fsyncs collapse into one group-commit window. An
// empty parent (or an unusable one — the fallback is always to full
// data) writes a full base. The resulting directory remains physically
// self-contained and restores through plain RestoreMeta.
type DeltaCheckpointer interface {
	Checkpointer
	// CheckpointDeltaMeta is CheckpointMeta diffed against parent.
	CheckpointDeltaMeta(dir, parent string, meta []byte) error
}

// CheckpointMeta implements Checkpointer over core.Store.
func (b *flowkvBackend) CheckpointMeta(dir string, meta []byte) error {
	return b.store.CheckpointWithMeta(dir, meta)
}

// CheckpointDeltaMeta implements DeltaCheckpointer over core.Store.
func (b *flowkvBackend) CheckpointDeltaMeta(dir, parent string, meta []byte) error {
	return b.store.CheckpointDelta(dir, parent, meta)
}

// RestoreMeta implements Checkpointer over core.Store.
func (b *flowkvBackend) RestoreMeta(dir string) ([]byte, error) {
	return b.store.RestoreWithMeta(dir)
}

// IdentityLister is the optional capability to list a backend's live
// (key, window) identities, sorted by core.CompareIdentities, from
// memory. A job restores a session operator's registry against it. The
// FlowKV backend over an AUR or RMW store provides it.
type IdentityLister interface {
	Identities() ([]core.Identity, error)
}

// Identities implements IdentityLister over core.Store.
func (b *flowkvBackend) Identities() ([]core.Identity, error) {
	return b.store.Identities()
}

// AsIdentityLister extracts the identity-listing capability, looking
// through wrappers like AsCheckpointer.
func AsIdentityLister(b Backend) (IdentityLister, bool) {
	for {
		if l, ok := b.(IdentityLister); ok {
			return l, true
		}
		u, ok := b.(Unwrapper)
		if !ok {
			return nil, false
		}
		b = u.Unwrap()
	}
}

// AsCheckpointer extracts the checkpoint capability from a backend,
// looking through wrappers (see Unwrapper).
func AsCheckpointer(b Backend) (Checkpointer, bool) {
	for {
		if c, ok := b.(Checkpointer); ok {
			return c, true
		}
		u, ok := b.(Unwrapper)
		if !ok {
			return nil, false
		}
		b = u.Unwrap()
	}
}

// AsDeltaCheckpointer extracts the incremental-checkpoint capability,
// looking through wrappers like AsCheckpointer. Callers holding only a
// Checkpointer fall back to full snapshots.
func AsDeltaCheckpointer(b Backend) (DeltaCheckpointer, bool) {
	for {
		if c, ok := b.(DeltaCheckpointer); ok {
			return c, true
		}
		u, ok := b.(Unwrapper)
		if !ok {
			return nil, false
		}
		b = u.Unwrap()
	}
}

// StartSelfHeal starts a background recoverer on b's FlowKV store: a
// supervised loop that drives a Degraded store back to Healthy with
// exponential backoff (see core.SelfHealer). It reports ok=false for
// backend kinds without a degraded mode. The returned stop function must
// be called before the backend is closed.
func StartSelfHeal(b Backend, opts core.SelfHealOptions) (stop func(), ok bool) {
	fb, isFlowKV := unwrap(b).(*flowkvBackend)
	if !isFlowKV {
		return nil, false
	}
	h := fb.store.StartSelfHealer(opts)
	return h.Stop, true
}

var (
	_ DeltaCheckpointer = (*flowkvBackend)(nil)
	_ IdentityLister    = (*flowkvBackend)(nil)
)

package tracex

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"tracex/internal/memo"
	"tracex/internal/store"
)

// This file is the engine's tier policy for stored artifacts — trace
// signatures and machine-independent reuse profiles. One resolver walks
// memory → disk → peer → collect for every artifact kind; each kind only
// chooses which hooks it has (an adaptive signature has no disk hooks, an
// analytical one neither disk nor peer hooks), so the special cases are
// hook choices, not branches inside the chain.

// sigKey identifies one signature collection. The collect options are
// normalized (defaults filled, execution-only knobs cleared) so equivalent
// requests share an entry.
type sigKey struct {
	app     string
	cores   int
	machine string // machine.Config.Fingerprint()
	opt     CollectOptions
}

// reuseKey identifies one reuse-distance collection. No machine component:
// the profile is geometry-free, and the cache model is cleared from the
// options because the same profile serves every model.
type reuseKey struct {
	app   string
	cores int
	opt   CollectOptions
}

// reuseOpt normalizes options to the reuse profile's identity.
func reuseOpt(opt CollectOptions) CollectOptions {
	n := opt.Normalized()
	n.Model = ""
	return n
}

// Provenance reports which tier of the engine's signature cache satisfied
// a collection request: the in-memory memo, the persistent on-disk store,
// or a fresh simulation. The HTTP service surfaces it as the `from` field
// on predict responses.
type Provenance string

const (
	// FromMemory: served by the in-memory memo cache (or by joining an
	// identical in-flight collection).
	FromMemory Provenance = "memory"
	// FromDisk: loaded from the persistent signature store — a warm
	// start, no simulation ran.
	FromDisk Provenance = "disk"
	// FromCollected: simulated fresh (and written through to both cache
	// tiers).
	FromCollected Provenance = "collected"
	// FromAnalytical: derived analytically from a reuse-distance
	// signature for this geometry — the underlying geometry-free profile
	// may have come from any tier, but no per-geometry simulation ran.
	FromAnalytical Provenance = "analytical"
	// FromPeer: fetched from a remote tier (WithRemoteTier) — another
	// tracexd that already holds the signature — and written through to
	// the local disk store; no local simulation ran.
	FromPeer Provenance = "peer"
)

// RemoteTier is a remote source of already-collected signatures the engine
// consults between its disk tier and a fresh collection (see
// WithRemoteTier). An implementation (internal/fleet) returns the signature
// for the exact (app, cores, machine, options) identity, (nil, nil) when no
// remote holds it, or an error for transient trouble; the engine treats
// both of the latter the same — it falls back to collecting locally, so an
// unreachable remote never fails a request on its own.
type RemoteTier interface {
	FetchSignature(ctx context.Context, app string, cores int, machine string, opt CollectOptions) (*Signature, error)
}

// noRemoteTierKey marks a context whose work must not consult the remote
// tier.
type noRemoteTierKey struct{}

// ContextWithoutRemoteTier returns a context under which the engine
// collects strictly locally: the remote tier (WithRemoteTier) is skipped.
// The HTTP service applies it to delegated collection requests, breaking
// delegation cycles when fleet members briefly disagree on key ownership.
func ContextWithoutRemoteTier(ctx context.Context) context.Context {
	return context.WithValue(ctx, noRemoteTierKey{}, true)
}

// remoteTierDisabled reports whether ctx forbids remote-tier fetches.
func remoteTierDisabled(ctx context.Context) bool {
	on, _ := ctx.Value(noRemoteTierKey{}).(bool)
	return on
}

// SignatureStore is the persistent, content-addressed signature store an
// Engine warm-starts from (see WithStore and internal/store).
type SignatureStore = store.Store

// SignatureKey is the logical identity of a stored signature: application,
// machine (name plus configuration fingerprint), core count and normalized
// collection options, flattened to the store's string form.
type SignatureKey = store.Key

// StoreKey returns the persistent-store key the Engine files a collection
// under. Exported so tools inspecting a store index signatures exactly as a
// warm-starting Engine looks them up.
func StoreKey(app string, cores int, m MachineConfig, opt CollectOptions) SignatureKey {
	return store.Key{
		App:       app,
		Machine:   m.Name,
		MachineFP: shortHash(m.Fingerprint()),
		Cores:     cores,
		Opt:       shortHash(optIdentity(opt.Normalized())),
	}
}

// ReuseStoreKey returns the persistent-store key for a machine-independent
// reuse-distance signature: no machine name or fingerprint — one stored
// profile serves every cache geometry — and the model cleared from the
// option identity, since the profile is the same whichever model consumes
// it.
func ReuseStoreKey(app string, cores int, opt CollectOptions) SignatureKey {
	return store.Key{
		App:   app,
		Cores: cores,
		Opt:   shortHash(optIdentity(reuseOpt(opt))),
		Kind:  store.KindReuse,
	}
}

// optIdentity renders a normalized configuration in the stable identity
// form hashed into store keys. For the exact model it reproduces the
// pre-Model `%+v` rendering of CollectorConfig byte for byte, so stores
// written before the Model field existed keep resolving under their
// original keys. Fixed sampling policies normalize into the legacy
// SampleRefs/MaxWarmRefs ints (see CollectorConfig.Normalized), so only
// adaptive policies — which produce different hit rates — extend the
// identity.
func optIdentity(n CollectOptions) string {
	s := fmt.Sprintf("{SampleRefs:%d MaxWarmRefs:%d Workers:0 BatchSize:0 SharedHierarchy:%t}",
		n.SampleRefs, n.MaxWarmRefs, n.SharedHierarchy)
	if n.Model != "" && n.Model != ModelExact {
		s += " Model:" + string(n.Model)
	}
	if n.Sampling.IsAdaptive() {
		s += " Sampling:" + n.Sampling.String()
	}
	return s
}

// shortHash condenses a long identity string (machine fingerprint, option
// set) into a 16-hex-digit discriminator for manifest keys.
func shortHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// tierHooks are one artifact kind's tiers below the memo. A nil hook skips
// its tier.
type tierHooks[V any] struct {
	// load reads the disk tier; ok is false on a miss (a corrupt object is
	// quarantined by the store and reads as a miss).
	load func() (v V, ok bool)
	// fetch asks the peer tier; ok is false when no peer supplied it.
	fetch func(ctx context.Context) (v V, ok bool)
	// save writes a peer or collected result through to disk.
	save func(V) error
	// collect produces the artifact locally; made is the provenance it
	// reports (FromCollected when empty).
	collect func(ctx context.Context) (V, error)
	made    Provenance
}

// resolve is the engine's single tier chain: memory, then disk, then peer,
// then a local collection. Peer and collected results are written through
// to disk; a failed write only counts store.put_errors, because a full or
// read-only disk must not fail a request that just succeeded. Peer trouble
// degrades to a local collection, except that a cancelled request returns
// its cancellation rather than masking it with a fresh collection. The
// hooks are built only on a memory miss, so a hit derives no store key.
func resolve[K comparable, V any](ctx context.Context, e *Engine, mem *memo.Cache[K, V], key K, hooks func() tierHooks[V]) (V, Provenance, error) {
	// prov is written only inside the memoized function, which either runs
	// on this goroutine (miss) or not at all (hit) — never on another
	// goroutine — so the read below is race-free.
	var prov Provenance
	v, hit, err := mem.Do(ctx, key, func() (v V, err error) {
		h := hooks()
		if h.load != nil {
			if v, ok := h.load(); ok {
				prov = FromDisk
				return v, nil
			}
		}
		ok := false
		if h.fetch != nil && !remoteTierDisabled(ctx) {
			e.peerFetches.Inc()
			if v, ok = h.fetch(ctx); ok {
				e.peerHits.Inc()
				prov = FromPeer
			}
		}
		if !ok {
			if err := ctx.Err(); err != nil {
				return v, err
			}
			if v, err = h.collect(ctx); err != nil {
				return v, err
			}
			prov = cmp.Or(h.made, FromCollected)
		}
		if h.save != nil && h.save(v) != nil {
			e.putErrors.Inc()
		}
		return v, nil
	})
	if err != nil {
		return v, "", err
	}
	if hit {
		return v, FromMemory, nil
	}
	return v, prov, nil
}

// CollectSignature traces the application at the given core count against
// the target machine, memoizing the result: a second identical request is
// served from cache with zero new simulation. A zero opt selects the
// engine's default collection options (WithCollectOptions).
func (e *Engine) CollectSignature(ctx context.Context, app *App, cores int, target MachineConfig, opt CollectOptions) (*Signature, error) {
	sig, _, err := e.CollectSignatureFrom(ctx, app, cores, target, opt)
	return sig, err
}

// CollectSignatureFrom is CollectSignature with provenance: it reports
// which tier satisfied the request — the in-memory cache, the persistent
// store (WithStore), a fleet peer (WithRemoteTier), or a fresh simulation.
// The tiers are checked in that order; a simulated signature is written
// through memory and disk on the way out, so the next identical request in
// this process is a memory hit and the next one in a restarted process is a
// disk hit. A peer fetch writes through to disk the same way, and any peer
// failure silently degrades to a local collection.
//
// Two kinds of signature skip tiers. Analytical signatures are derived in
// microseconds from the reuse profile (itself tiered, see CollectReuse), so
// they are only memoized and report FromAnalytical. Adaptive collections
// carry measurement uncertainty, which the binary store codec does not
// persist, so they stay in the memory and peer tiers (peers exchange JSON,
// which carries it).
func (e *Engine) CollectSignatureFrom(ctx context.Context, app *App, cores int, target MachineConfig, opt CollectOptions) (*Signature, Provenance, error) {
	if err := e.usable(); err != nil {
		return nil, "", err
	}
	if app == nil {
		return nil, "", fmt.Errorf("tracex: nil application")
	}
	if opt == (CollectOptions{}) {
		opt = e.collectOpt
	}
	if opt.Model == "" {
		opt.Model = e.model
	}
	ctx = e.obsCtx(ctx)
	sp := e.reg.StartSpan("engine.collect", fmt.Sprintf("%s@%d", app.Name(), cores))
	defer sp.End()
	norm := opt.Normalized()
	key := sigKey{app: app.Name(), cores: cores, machine: target.Fingerprint(), opt: norm}
	return resolve(ctx, e, e.sigs, key, func() (h tierHooks[*Signature]) {
		if norm.Model == ModelAnalytical {
			h.collect = func(ctx context.Context) (*Signature, error) {
				rs, _, err := e.CollectReuse(ctx, app, cores, opt)
				if err != nil {
					return nil, err
				}
				return DeriveSignature(rs, app, target)
			}
			h.made = FromAnalytical
			return h
		}
		h.collect = func(ctx context.Context) (*Signature, error) {
			return e.collector.Collect(ctx, app, cores, target, nil, opt)
		}
		if e.disk != nil && !norm.Sampling.IsAdaptive() {
			sk := StoreKey(app.Name(), cores, target, opt)
			h.load = func() (*Signature, bool) {
				sig, ok, _ := e.disk.Get(sk)
				return sig, ok
			}
			h.save = func(sig *Signature) error {
				_, err := e.disk.Put(sig, sk)
				return err
			}
		}
		if e.remote != nil {
			h.fetch = func(ctx context.Context) (*Signature, bool) {
				sig, err := e.remote.FetchSignature(ctx, app.Name(), cores, target.Name, opt)
				return sig, err == nil && sig != nil
			}
		}
		return h
	})
}

// CollectReuse returns the machine-independent reuse-distance signature of
// the application at the given core count, with the same tiering as
// CollectSignatureFrom minus the peer tier: in-memory memo, then the
// persistent store (the profile is keyed without any machine component —
// see ReuseStoreKey), then a fresh recording written through both tiers.
// The provenance reports the tier that satisfied the request. A zero opt
// selects the engine's default collection options; the options' Model and
// execution knobs do not affect the profile's identity.
func (e *Engine) CollectReuse(ctx context.Context, app *App, cores int, opt CollectOptions) (*ReuseSignature, Provenance, error) {
	if err := e.usable(); err != nil {
		return nil, "", err
	}
	if app == nil {
		return nil, "", fmt.Errorf("tracex: nil application")
	}
	if opt == (CollectOptions{}) {
		opt = e.collectOpt
	}
	ctx = e.obsCtx(ctx)
	sp := e.reg.StartSpan("engine.reuse", fmt.Sprintf("%s@%d", app.Name(), cores))
	defer sp.End()
	key := reuseKey{app: app.Name(), cores: cores, opt: reuseOpt(opt)}
	return resolve(ctx, e, e.reuse, key, func() (h tierHooks[*ReuseSignature]) {
		h.collect = func(ctx context.Context) (*ReuseSignature, error) {
			return e.collector.CollectReuse(ctx, app, cores, opt)
		}
		if e.disk != nil {
			sk := ReuseStoreKey(app.Name(), cores, opt)
			h.load = func() (*ReuseSignature, bool) {
				rs, ok, _ := e.disk.GetReuse(sk)
				return rs, ok
			}
			h.save = func(rs *ReuseSignature) error {
				_, err := e.disk.PutReuse(rs, sk)
				return err
			}
		}
		return h
	})
}

// Store returns the engine's persistent signature store, or nil when the
// engine was built without WithStore.
func (e *Engine) Store() *SignatureStore { return e.disk }

// Import files a signature collected or extrapolated elsewhere into the
// engine's persistent store under the key a default-options collection of
// its (app, cores, machine) identity resolves to: the importer asserts the
// signature stands in for that collection, and the next such request warm-
// starts from it. The signature's machine must be a predefined
// configuration. A signature carrying uncertainty is refused with
// store.ErrUncertainty, because the binary codec would drop it.
func (e *Engine) Import(sig *Signature) (store.Entry, error) {
	if err := e.usable(); err != nil {
		return store.Entry{}, err
	}
	if e.disk == nil {
		return store.Entry{}, errors.New("tracex: engine has no signature store")
	}
	m, err := LoadMachine(sig.Machine)
	if err != nil {
		return store.Entry{}, fmt.Errorf("tracex: signature names machine %q: %w", sig.Machine, err)
	}
	return e.disk.Put(sig, StoreKey(sig.App, sig.CoreCount, m, CollectOptions{}))
}

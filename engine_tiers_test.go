package tracex

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// tierCounts is the slice of engine counters the tier chain moves.
type tierCounts struct {
	storeHits, storeMisses, storePuts, putErrors, peerFetches, peerHits uint64
}

func engineTierCounts(e *Engine) tierCounts {
	st := e.Stats()
	return tierCounts{
		storeHits:   st.StoreHits,
		storeMisses: st.StoreMisses,
		storePuts:   st.StorePuts,
		putErrors:   e.Registry().Counter("store.put_errors").Value(),
		peerFetches: st.PeerFetches,
		peerHits:    st.PeerHits,
	}
}

// cancellingRemoteTier cancels the request's context from inside the fetch,
// the way a client disconnect lands while a peer exchange is in flight.
type cancellingRemoteTier struct {
	cancel context.CancelFunc
}

func (c *cancellingRemoteTier) FetchSignature(ctx context.Context, app string, cores int, machine string, opt CollectOptions) (*Signature, error) {
	c.cancel()
	return nil, ctx.Err()
}

// TestEngineTierMatrix pins the tier policy for every stored artifact kind
// under every tier situation: which provenance is reported, which store and
// peer counters move, whether a failed write-through is swallowed, and that
// whatever tier served the request predicts bit for bit like a cold
// collection.
func TestEngineTierMatrix(t *testing.T) {
	app := testApp(t, "stencil3d")
	target := testMachine(t, "bluewaters")
	const cores = 16
	fixed := CollectOptions{Sampling: FixedSampling(20_000, 60_000)}
	adaptivePol, err := ParseSamplingPolicy("adaptive:0.05,pilot=5000,min=5000,max=50000")
	if err != nil {
		t.Fatal(err)
	}

	type kind struct {
		name string
		// collect runs the artifact's engine entry point and returns the
		// artifact as a signature to predict from.
		collect func(ctx context.Context, e *Engine) (*Signature, any, Provenance, error)
	}
	sigKind := func(name string, opt CollectOptions) kind {
		return kind{name, func(ctx context.Context, e *Engine) (*Signature, any, Provenance, error) {
			sig, prov, err := e.CollectSignatureFrom(ctx, app, cores, target, opt)
			return sig, sig, prov, err
		}}
	}
	kinds := []kind{
		sigKind("fixed", fixed),
		sigKind("adaptive", CollectOptions{Sampling: adaptivePol}),
		sigKind("analytical", CollectOptions{Sampling: FixedSampling(20_000, 60_000), Model: ModelAnalytical}),
		{"reuse", func(ctx context.Context, e *Engine) (*Signature, any, Provenance, error) {
			rs, prov, err := e.CollectReuse(ctx, app, cores, fixed)
			if err != nil {
				return nil, nil, prov, err
			}
			sig, err := DeriveSignature(rs, app, target)
			return sig, rs, prov, err
		}},
	}

	// Reference artifacts and predictions, from store-less cold engines.
	ref := NewEngine()
	defer ref.Close()
	predictBits := func(t *testing.T, sig *Signature) [5]uint64 {
		t.Helper()
		p, err := ref.Predict(context.Background(), PredictRequest{Signature: sig, App: app})
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		return [5]uint64{
			math.Float64bits(p.Runtime), math.Float64bits(p.ComputeSeconds), math.Float64bits(p.CommSeconds),
			math.Float64bits(p.MemSeconds), math.Float64bits(p.FPSeconds),
		}
	}
	refSig := map[string]*Signature{}
	refArtifact := map[string]any{}
	refBits := map[string][5]uint64{}
	for _, k := range kinds {
		e := NewEngine()
		sig, art, _, err := k.collect(context.Background(), e)
		e.Close()
		if err != nil {
			t.Fatalf("%s reference: %v", k.name, err)
		}
		refSig[k.name], refArtifact[k.name], refBits[k.name] = sig, art, predictBits(t, sig)
	}

	// A scenario builds the engine under test (with its store at dir), may
	// run warm-up requests, and returns the engine and the context of the
	// request whose outcome the matrix pins.
	type scenario struct {
		name  string
		setup func(t *testing.T, k kind, dir string) (*Engine, context.Context)
	}
	open := func(t *testing.T, opts ...EngineOption) *Engine {
		t.Helper()
		e := NewEngine(opts...)
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	warm := func(t *testing.T, k kind, e *Engine) {
		t.Helper()
		if _, _, _, err := k.collect(context.Background(), e); err != nil {
			t.Fatalf("warm-up request: %v", err)
		}
	}
	remote := func(k kind, err error) RemoteTier {
		sig := refSig[k.name]
		if k.name == "reuse" {
			sig = refSig["fixed"]
		}
		if err != nil {
			sig = nil
		}
		return &fakeRemoteTier{sig: sig, err: err}
	}
	scenarios := []scenario{
		{"cold", func(t *testing.T, k kind, dir string) (*Engine, context.Context) {
			return open(t, WithStore(dir)), context.Background()
		}},
		{"same-engine", func(t *testing.T, k kind, dir string) (*Engine, context.Context) {
			e := open(t, WithStore(dir))
			warm(t, k, e)
			return e, context.Background()
		}},
		{"fresh-engine-same-store", func(t *testing.T, k kind, dir string) (*Engine, context.Context) {
			first := NewEngine(WithStore(dir))
			warm(t, k, first)
			first.Close()
			return open(t, WithStore(dir)), context.Background()
		}},
		{"remote-hit", func(t *testing.T, k kind, dir string) (*Engine, context.Context) {
			return open(t, WithStore(dir), WithRemoteTier(remote(k, nil))), context.Background()
		}},
		{"remote-error", func(t *testing.T, k kind, dir string) (*Engine, context.Context) {
			return open(t, WithStore(dir), WithRemoteTier(remote(k, errors.New("peer unreachable")))), context.Background()
		}},
		{"remote-cancelled", func(t *testing.T, k kind, dir string) (*Engine, context.Context) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			return open(t, WithStore(dir), WithRemoteTier(&cancellingRemoteTier{cancel: cancel})), ctx
		}},
		{"store-writes-fail", func(t *testing.T, k kind, dir string) (*Engine, context.Context) {
			e := open(t, WithStore(dir))
			// Permission bits do not stop root, so make the objects tree
			// unusable by replacing it with a plain file.
			objects := filepath.Join(dir, "objects")
			if err := os.RemoveAll(objects); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(objects, nil, 0o600); err != nil {
				t.Fatal(err)
			}
			return e, context.Background()
		}},
	}

	type want struct {
		prov   Provenance
		err    error
		counts tierCounts
	}
	// Counter order: store hits, misses, puts, put errors, peer fetches,
	// peer hits.
	c := func(n ...uint64) tierCounts { return tierCounts{n[0], n[1], n[2], n[3], n[4], n[5]} }
	// Every exact fixed-policy signature and every reuse profile runs the
	// full memory → disk → collect chain with write-through; only exact
	// signatures consult the peer tier; adaptive signatures skip the disk
	// tier; analytical signatures are derived from the (tiered) reuse
	// profile and never consult the peer tier.
	matrix := map[string]map[string]want{
		"fixed": {
			"cold":                    {FromCollected, nil, c(0, 1, 1, 0, 0, 0)},
			"same-engine":             {FromMemory, nil, c(0, 1, 1, 0, 0, 0)},
			"fresh-engine-same-store": {FromDisk, nil, c(1, 0, 0, 0, 0, 0)},
			"remote-hit":              {FromPeer, nil, c(0, 1, 1, 0, 1, 1)},
			"remote-error":            {FromCollected, nil, c(0, 1, 1, 0, 1, 0)},
			"remote-cancelled":        {"", context.Canceled, c(0, 1, 0, 0, 1, 0)},
			"store-writes-fail":       {FromCollected, nil, c(0, 1, 0, 1, 0, 0)},
		},
		"adaptive": {
			"cold":                    {FromCollected, nil, c(0, 0, 0, 0, 0, 0)},
			"same-engine":             {FromMemory, nil, c(0, 0, 0, 0, 0, 0)},
			"fresh-engine-same-store": {FromCollected, nil, c(0, 0, 0, 0, 0, 0)},
			"remote-hit":              {FromPeer, nil, c(0, 0, 0, 0, 1, 1)},
			"remote-error":            {FromCollected, nil, c(0, 0, 0, 0, 1, 0)},
			"remote-cancelled":        {"", context.Canceled, c(0, 0, 0, 0, 1, 0)},
			"store-writes-fail":       {FromCollected, nil, c(0, 0, 0, 0, 0, 0)},
		},
		"analytical": {
			"cold":                    {FromAnalytical, nil, c(0, 1, 1, 0, 0, 0)},
			"same-engine":             {FromMemory, nil, c(0, 1, 1, 0, 0, 0)},
			"fresh-engine-same-store": {FromAnalytical, nil, c(1, 0, 0, 0, 0, 0)},
			"remote-hit":              {FromAnalytical, nil, c(0, 1, 1, 0, 0, 0)},
			"remote-error":            {FromAnalytical, nil, c(0, 1, 1, 0, 0, 0)},
			"remote-cancelled":        {FromAnalytical, nil, c(0, 1, 1, 0, 0, 0)},
			"store-writes-fail":       {FromAnalytical, nil, c(0, 1, 0, 1, 0, 0)},
		},
		"reuse": {
			"cold":                    {FromCollected, nil, c(0, 1, 1, 0, 0, 0)},
			"same-engine":             {FromMemory, nil, c(0, 1, 1, 0, 0, 0)},
			"fresh-engine-same-store": {FromDisk, nil, c(1, 0, 0, 0, 0, 0)},
			"remote-hit":              {FromCollected, nil, c(0, 1, 1, 0, 0, 0)},
			"remote-error":            {FromCollected, nil, c(0, 1, 1, 0, 0, 0)},
			"remote-cancelled":        {FromCollected, nil, c(0, 1, 1, 0, 0, 0)},
			"store-writes-fail":       {FromCollected, nil, c(0, 1, 0, 1, 0, 0)},
		},
	}

	for _, k := range kinds {
		for _, sc := range scenarios {
			t.Run(k.name+"/"+sc.name, func(t *testing.T) {
				w := matrix[k.name][sc.name]
				e, ctx := sc.setup(t, k, t.TempDir())
				sig, art, prov, err := k.collect(ctx, e)
				if w.err != nil {
					if !errors.Is(err, w.err) {
						t.Fatalf("err = %v, want %v", err, w.err)
					}
				} else if err != nil {
					t.Fatalf("err = %v", err)
				}
				if prov != w.prov {
					t.Errorf("provenance = %q, want %q", prov, w.prov)
				}
				if got := engineTierCounts(e); got != w.counts {
					t.Errorf("counters = %+v, want %+v", got, w.counts)
				}
				if w.err != nil {
					return
				}
				if got := predictBits(t, sig); got != refBits[k.name] {
					t.Errorf("prediction bits %x, want %x (cold collection)", got, refBits[k.name])
				}
				if k.name == "reuse" && !reflect.DeepEqual(art, refArtifact[k.name]) {
					t.Error("reuse profile differs from the cold collection")
				}
			})
		}
	}
}

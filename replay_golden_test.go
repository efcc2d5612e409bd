package tracex

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// replayGoldenCase is one application's slice of the replay golden: three
// collected inputs, a point prediction from one of them, and interval
// predictions from extrapolations to larger core counts.
type replayGoldenCase struct {
	app       string
	inputs    []int
	collected int   // input count predicted from its collected signature
	targets   []int // extrapolation targets, predicted with intervals
}

var replayGoldenCases = []replayGoldenCase{
	{"specfem3d", []int{96, 384, 1536}, 384, []int{3072, 6144}},
	{"uh3d", []int{1024, 2048, 4096}, 1024, []int{8192}},
	{"stencil3d", []int{64, 128, 256}, 128, []int{512, 1024}},
	{"stencil3dweak", []int{64, 128, 256}, 128, []int{512, 1024}},
	{"cgsolve", []int{64, 128, 256}, 128, []int{512, 1024}},
}

// replayGoldenCollect keeps the golden's collections small; the pin is on
// the replay, not on sampling fidelity.
var replayGoldenCollect = CollectOptions{SampleRefs: 20_000, MaxWarmRefs: 60_000}

// goldenPrediction is the bit-level fingerprint of one prediction.
type goldenPrediction struct {
	Name      string   `json:"name"`
	Runtime   string   `json:"runtime"`
	Compute   string   `json:"compute"`
	Comm      string   `json:"comm"`
	Mem       string   `json:"mem"`
	FP        string   `json:"fp"`
	RankEnd   string   `json:"rank_end,omitempty"`
	RankComp  string   `json:"rank_compute,omitempty"`
	RankComm  string   `json:"rank_comm,omitempty"`
	Messages  int      `json:"messages,omitempty"`
	Segments  int      `json:"segments,omitempty"`
	Timeline  string   `json:"timeline,omitempty"`
	Intervals []string `json:"intervals,omitempty"`
}

func f64bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// hashFloats digests a float slice by bit pattern.
func hashFloats(vs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fingerprint(name string, p *Prediction) goldenPrediction {
	g := goldenPrediction{
		Name: name, Runtime: f64bits(p.Runtime), Compute: f64bits(p.ComputeSeconds),
		Comm: f64bits(p.CommSeconds), Mem: f64bits(p.MemSeconds), FP: f64bits(p.FPSeconds),
	}
	if r := p.Replay; r != nil {
		if r.Runtime != p.Runtime {
			g.Runtime = "replay runtime differs: " + f64bits(r.Runtime)
		}
		g.RankEnd, g.RankComp, g.RankComm = hashFloats(r.RankEnd), hashFloats(r.ComputeTime), hashFloats(r.CommTime)
		g.Messages = r.Messages
	}
	if tl := p.Timeline; tl != nil {
		h := sha256.New()
		for _, s := range tl.Segments {
			fmt.Fprintf(h, "%d %s %016x %016x %d\n", s.Rank, s.Kind,
				math.Float64bits(s.Start), math.Float64bits(s.End), s.BlockID)
		}
		g.Segments, g.Timeline = len(tl.Segments), hex.EncodeToString(h.Sum(nil))
	}
	for _, iv := range p.Intervals {
		g.Intervals = append(g.Intervals, fmt.Sprintf("%g %s %s", iv.Level, f64bits(iv.Lo), f64bits(iv.Hi)))
	}
	return g
}

// TestReplayGolden pins the prediction and measurement paths bit for bit:
// runtime, per-rank replay decomposition, timeline and interval bounds for
// every application at several core counts. Regenerate with -update only
// for an intended change to the replay's arithmetic.
func TestReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("collects every application in -short mode")
	}
	ctx := context.Background()
	target, err := LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	defer e.Close()
	// Profiles are deterministic; the default engine's is shared with the
	// package's other tests.
	prof, err := DefaultEngine().Profile(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenPrediction
	for _, c := range replayGoldenCases {
		app, err := LoadApp(c.app)
		if err != nil {
			t.Fatal(err)
		}
		inputs, err := e.CollectInputs(ctx, app, c.inputs, target, replayGoldenCollect)
		if err != nil {
			t.Fatal(err)
		}
		for _, sig := range inputs {
			if sig.CoreCount != c.collected {
				continue
			}
			p, err := e.Predict(ctx, PredictRequest{Signature: sig, App: app, Profile: prof,
				WithReplay: true, WithTimeline: true})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fingerprint(fmt.Sprintf("%s@%d collected", c.app, c.collected), p))
		}
		for _, tc := range c.targets {
			res, err := e.Extrapolate(ctx, inputs, tc, ExtrapOptions{Intervals: true})
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.Predict(ctx, PredictRequest{Signature: res.Signature, App: app, Profile: prof,
				WithReplay: true, WithTimeline: true, Intervals: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Intervals) == 0 {
				t.Fatalf("%s@%d: no intervals from an uncertain signature", c.app, tc)
			}
			got = append(got, fingerprint(fmt.Sprintf("%s@%d extrapolated", c.app, tc), p))
		}
		m, err := e.Measure(ctx, app, c.inputs[0], target, replayGoldenCollect)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fingerprint(fmt.Sprintf("%s@%d measured", c.app, c.inputs[0]), m))
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "replay.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		var wantRows []goldenPrediction
		if err := json.Unmarshal(want, &wantRows); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if i >= len(wantRows) || got[i].Name != wantRows[i].Name {
				t.Fatalf("row %d: %+v has no golden counterpart", i, got[i])
			}
			if fmt.Sprint(got[i]) != fmt.Sprint(wantRows[i]) {
				t.Errorf("%s:\n got  %+v\n want %+v", got[i].Name, got[i], wantRows[i])
			}
		}
		if len(got) != len(wantRows) {
			t.Errorf("%d rows, golden has %d", len(got), len(wantRows))
		}
	}
}

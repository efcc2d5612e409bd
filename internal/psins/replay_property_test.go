package psins

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tracex/internal/machine"
	"tracex/internal/mpi"
)

// testNetCfg is the network used by the replay property tests.
var testNetCfg = machine.NetworkConfig{LatencyUS: 5, BandwidthGBs: 2, OverheadUS: 1}

// randomProgram builds a structurally valid random program via the builder.
func randomProgram(seed int64) (*mpi.Program, error) {
	r := rand.New(rand.NewSource(seed))
	n := []int{2, 4, 8, 27}[r.Intn(4)]
	g, err := mpi.NewGrid3D(n)
	if err != nil {
		return nil, err
	}
	b := mpi.NewBuilder("prop", n)
	steps := 1 + r.Intn(4)
	for s := 0; s < steps; s++ {
		b.ComputeAll(uint64(r.Intn(3)+1), 1.0/float64(steps))
		switch r.Intn(3) {
		case 0:
			b.HaloExchange3D(g, uint64(r.Intn(1<<16)+1), s*100)
		case 1:
			b.HaloExchange3DNonblocking(g, uint64(r.Intn(1<<16)+1), s*100)
		case 2:
			b.Ring(uint64(r.Intn(1<<12)+1), s*100+7)
		}
		b.Allreduce(uint64(r.Intn(256) + 1))
	}
	return b.Build()
}

// Property: replay is deterministic and its runtime is bounded below by
// the maximum per-rank compute time and above by total compute plus total
// communication per rank.
func TestReplayInvariantsProperty(t *testing.T) {
	net, err := NewNetwork(testNetCfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		prog, err := randomProgram(seed)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		perBlock := map[uint64]float64{}
		cost := func(rank int, blockID uint64, share float64) (float64, error) {
			c, ok := perBlock[blockID]
			if !ok {
				c = r.Float64() * 0.1
				perBlock[blockID] = c
			}
			return c * share, nil
		}
		a, err := Replay(prog, net, cost)
		if err != nil {
			return false
		}
		b, err := Replay(prog, net, cost)
		if err != nil {
			return false
		}
		if a.Runtime != b.Runtime {
			return false // nondeterministic
		}
		var maxCompute float64
		for rk := range a.ComputeTime {
			if a.ComputeTime[rk] < 0 || a.CommTime[rk] < 0 {
				return false
			}
			if a.ComputeTime[rk] > maxCompute {
				maxCompute = a.ComputeTime[rk]
			}
			// Each rank's end time decomposes exactly.
			if math.Abs(a.RankEnd[rk]-(a.ComputeTime[rk]+a.CommTime[rk])) > 1e-9 {
				return false
			}
			if a.RankEnd[rk] > a.Runtime+1e-12 {
				return false
			}
		}
		return a.Runtime >= maxCompute-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: inflating every compute cost never reduces the replay runtime
// (monotonicity of the DES in compute time).
func TestReplayMonotoneInComputeProperty(t *testing.T) {
	net, err := NewNetwork(testNetCfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		prog, err := randomProgram(seed)
		if err != nil {
			return false
		}
		mk := func(scale float64) ComputeCost {
			return func(rank int, blockID uint64, share float64) (float64, error) {
				return scale * 0.01 * share * float64(blockID), nil
			}
		}
		small, err := Replay(prog, net, mk(1))
		if err != nil {
			return false
		}
		big, err := Replay(prog, net, mk(3))
		if err != nil {
			return false
		}
		return big.Runtime >= small.Runtime-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a faster network never increases the runtime.
func TestReplayMonotoneInNetworkProperty(t *testing.T) {
	slow, err := NewNetwork(testNetCfg)
	if err != nil {
		t.Fatal(err)
	}
	fastCfg := testNetCfg
	fastCfg.LatencyUS /= 10
	fastCfg.BandwidthGBs *= 10
	fastCfg.OverheadUS /= 10
	fast, err := NewNetwork(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		prog, err := randomProgram(seed)
		if err != nil {
			return false
		}
		rs, err := Replay(prog, slow, flatCost(0.001))
		if err != nil {
			return false
		}
		rf, err := Replay(prog, fast, flatCost(0.001))
		if err != nil {
			return false
		}
		return rf.Runtime <= rs.Runtime+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sameReplay reports whether two replays agree bit for bit: results,
// per-rank decomposition and timeline segments.
func sameReplay(a, b *Result, ta, tb *Timeline) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if math.Float64bits(a.Runtime) != math.Float64bits(b.Runtime) || a.Messages != b.Messages ||
		!same(a.RankEnd, b.RankEnd) || !same(a.ComputeTime, b.ComputeTime) || !same(a.CommTime, b.CommTime) {
		return false
	}
	if len(ta.Segments) != len(tb.Segments) {
		return false
	}
	for i, s := range ta.Segments {
		u := tb.Segments[i]
		if s.Rank != u.Rank || s.Kind != u.Kind || s.BlockID != u.BlockID ||
			math.Float64bits(s.Start) != math.Float64bits(u.Start) || math.Float64bits(s.End) != math.Float64bits(u.End) {
			return false
		}
	}
	return true
}

// Property: one compiled plan replayed repeatedly on reused scratch, with
// different compute costs in between, equals a fresh ReplayTraced and the
// map-based reference scheduler bit for bit, timeline included.
func TestPlanReplayMatchesReferenceProperty(t *testing.T) {
	net, err := NewNetwork(testNetCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f := func(seed int64) bool {
		prog, err := randomProgram(seed)
		if err != nil {
			return false
		}
		plan, err := Compile(prog)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed ^ 0x91a4))
		perBlock := map[uint64]float64{1: r.Float64(), 2: r.Float64(), 3: r.Float64()}
		for _, scale := range []float64{1, 3, 1} {
			cost := func(rank int, blockID uint64, share float64) (float64, error) {
				return scale * 0.01 * perBlock[blockID] * share * float64(1+rank%3), nil
			}
			var tlRef, tlPlan, tlFresh Timeline
			ref, err := referenceReplay(ctx, prog, net, cost, &tlRef)
			if err != nil {
				return false
			}
			got, err := plan.Replay(ctx, net, cost, &tlPlan)
			if err != nil || !sameReplay(ref, got, &tlRef, &tlPlan) {
				return false
			}
			fresh, err := ReplayTraced(ctx, prog, net, cost, &tlFresh)
			if err != nil || !sameReplay(ref, fresh, &tlRef, &tlFresh) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package psins

import (
	"context"
	"fmt"

	"tracex/internal/mpi"
	"tracex/internal/obs"
)

// ComputeCost converts one compute event into seconds: the time rank spends
// executing the given share of basic block blockID. Implementations come
// from either the convolution (predicted per-block times from a signature
// and machine profile) or the detailed execution simulator (cycle-accurate
// per-block times), making the replay engine common to both paths.
type ComputeCost func(rank int, blockID uint64, share float64) (float64, error)

// Result summarizes a replay: the predicted application runtime and the
// per-rank decomposition into computation and communication time.
type Result struct {
	// Runtime is the wall-clock prediction: the latest rank finish time.
	Runtime float64
	// RankEnd[r] is rank r's finish time.
	RankEnd []float64
	// ComputeTime[r] is the total time rank r spent in compute segments.
	ComputeTime []float64
	// CommTime[r] is the total time rank r spent in communication
	// (overheads plus blocking waits).
	CommTime []float64
	// Messages is the number of point-to-point messages delivered.
	Messages int
}

// Segment is one interval of a rank's replayed timeline.
type Segment struct {
	// Rank is the MPI rank the segment belongs to.
	Rank int `json:"rank"`
	// Kind is the event kind ("compute", "recv", "allreduce", ...).
	Kind string `json:"kind"`
	// Start and End bound the segment in seconds of virtual time.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// BlockID is set for compute segments.
	BlockID uint64 `json:"block_id,omitempty"`
}

// Timeline collects the per-rank segments of a replay for visualization
// and prediction debugging. Zero-length segments (instantaneous events) are
// omitted.
type Timeline struct {
	Segments []Segment `json:"segments"`
}

// add appends a non-empty segment.
func (tl *Timeline) add(rank int, kind mpi.EventKind, start, end float64, blockID uint64) {
	if tl == nil || end <= start {
		return
	}
	tl.Segments = append(tl.Segments, Segment{
		Rank: rank, Kind: kind.String(), Start: start, End: end, BlockID: blockID,
	})
}

// Replay performs a discrete-event replay of prog: per-rank virtual clocks
// advance through each rank's event list, blocking receives wait for
// message arrival under the network model, and collectives synchronize all
// ranks. The cost callback supplies compute-segment durations. Replay
// returns an error for structurally invalid programs and for replays that
// deadlock (which cannot happen for programs produced by mpi.Builder).
func Replay(prog *mpi.Program, net Network, cost ComputeCost) (*Result, error) {
	return ReplayTraced(context.Background(), prog, net, cost, nil)
}

// ctxCheckMask throttles cancellation polling in the replay scheduler: the
// context is consulted every ctxCheckMask+1 replayed events.
const ctxCheckMask = 1<<12 - 1

// ReplayTraced is Replay with context cancellation and optional timeline
// recording: cancelling ctx stops the replay promptly mid-schedule and
// returns ctx.Err(); when tl is non-nil every rank's compute and
// communication intervals are appended to it (memory grows with the event
// count — use judiciously at large rank counts). It compiles prog and
// replays the plan once; callers replaying one program repeatedly should
// Compile it once and call Plan.Replay.
func ReplayTraced(ctx context.Context, prog *mpi.Program, net Network, cost ComputeCost, tl *Timeline) (*Result, error) {
	plan, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return plan.Replay(ctx, net, cost, tl)
}

// Replay runs the plan's discrete-event replay (see ReplayTraced for the
// semantics). The plan is read-only, so concurrent replays may share it.
func (p *Plan) Replay(ctx context.Context, net Network, cost ComputeCost, tl *Timeline) (*Result, error) {
	if cost == nil {
		return nil, fmt.Errorf("psins: nil compute cost")
	}
	n := p.numRanks()
	sp := obs.From(ctx).StartSpan("psins.replay", fmt.Sprintf("%d ranks", n))
	defer sp.End()
	res := &Result{
		RankEnd:     make([]float64, n),
		ComputeTime: make([]float64, n),
		CommTime:    make([]float64, n),
		Messages:    p.slots,
	}
	s := p.scratch()
	defer p.pool.Put(s)
	clock := res.RankEnd // each rank's virtual clock ends as its finish time
	pc, collReg, nicFree, arrival, ready, colls := s.pc, s.collReg, s.nicFree, s.arrival, s.ready, s.colls

	remaining := 0
	for r := 0; r < n; r++ {
		if pc[r] < p.start[r+1] {
			remaining++
		}
	}
	var replayed int
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		progress := false
		for r := 0; r < n; r++ {
			end := p.start[r+1]
			if pc[r] == end {
				continue
			}
			// Drain as many events as possible for this rank before moving
			// on; only a blocked receive or collective stops it.
		rankLoop:
			for pc[r] < end {
				if replayed++; replayed&ctxCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				o := &p.ops[pc[r]]
				kind := mpi.EventKind(o.kind)
				switch kind {
				case mpi.Compute:
					dt, err := cost(r, o.arg, o.share)
					if err != nil {
						return nil, fmt.Errorf("psins: rank %d block %d: %w", r, o.arg, err)
					}
					if dt < 0 {
						return nil, fmt.Errorf("psins: negative compute cost %g for block %d", dt, o.arg)
					}
					tl.add(r, mpi.Compute, clock[r], clock[r]+dt, o.arg)
					clock[r] += dt
					res.ComputeTime[r] += dt
				case mpi.Send, mpi.Isend:
					// Sends are eager: the CPU pays the injection overhead
					// and an Isend's Wait is compiled away. Consecutive sends
					// from one rank serialize at its NIC even though the CPU
					// only pays the per-message overhead.
					ov := net.SendOverhead(o.arg)
					start := clock[r] + ov
					if nicFree[r] > start {
						start = nicFree[r]
					}
					ser := net.SerializationTime(o.arg)
					nicFree[r] = start + ser
					arrival[o.slot] = start + ser + net.Latency()
					ready[o.slot] = true
					tl.add(r, kind, clock[r], clock[r]+ov, 0)
					clock[r] += ov
					res.CommTime[r] += ov
				case mpi.Recv, mpi.Wait:
					// A Recv, or the Wait completing an Irecv: both consume
					// the message in the slot matched at compile time.
					if !ready[o.slot] {
						break rankLoop // blocked: matching send not yet executed
					}
					start := clock[r]
					end := arrival[o.slot]
					if end < start {
						end = start
					}
					end += net.RecvOverhead()
					tl.add(r, kind, start, end, 0)
					res.CommTime[r] += end - start
					clock[r] = end
				default: // collective; o.slot is its occurrence index
					idx := int(o.slot)
					st := &colls[idx]
					if collReg[r] == idx {
						// First visit by this rank: register arrival.
						st.arrived++
						collReg[r] = idx + 1
						if clock[r] > st.maxT {
							st.maxT = clock[r]
						}
						if st.arrived == n {
							spec := p.colls[idx]
							c, err := net.CollectiveCost(spec.kind, n, spec.bytes)
							if err != nil {
								return nil, err
							}
							st.done = true
							st.endT = st.maxT + c
						}
						progress = true
					}
					if !st.done {
						break rankLoop // wait for the other ranks
					}
					tl.add(r, kind, clock[r], st.endT, 0)
					res.CommTime[r] += st.endT - clock[r]
					clock[r] = st.endT
				}
				pc[r]++
				progress = true
			}
			if pc[r] == end {
				remaining--
			}
		}
		if !progress {
			return nil, fmt.Errorf("psins: replay deadlocked with %d/%d ranks incomplete", remaining, n)
		}
	}
	for r := 0; r < n; r++ {
		if clock[r] > res.Runtime {
			res.Runtime = clock[r]
		}
	}
	// One batched metrics update per replay: events executed, messages
	// delivered, and the virtual compute vs communication-wait split summed
	// across ranks.
	m := obs.From(ctx)
	var compute, comm float64
	for r := 0; r < n; r++ {
		compute += res.ComputeTime[r]
		comm += res.CommTime[r]
	}
	m.Counter("psins.replays").Inc()
	m.Counter("psins.events").Add(uint64(p.events))
	m.Counter("psins.messages").Add(uint64(res.Messages))
	m.Gauge("psins.compute_seconds").Add(compute)
	m.Gauge("psins.comm_seconds").Add(comm)
	return res, nil
}

package psins

import (
	"fmt"
	"math"
	"sync"

	"tracex/internal/mpi"
)

// Plan is an mpi.Program compiled for replay: validated once, flattened
// into per-rank op arrays, with every message matched to a static arrival
// slot and every collective checked for kind and size agreement. Replaying
// a plan does no validation and no map lookups. A Plan is immutable and
// safe for concurrent replays.
//
// Static slot assignment is sound because a point-to-point channel
// (source, destination, tag) is ordered: all its sends run on the source
// rank and all its receives on the destination rank, each in program
// order, and MPI matches the j-th posted receive to the j-th sent message.
// Where in the schedule a send or receive executes therefore never changes
// which slot it touches, only when.
type Plan struct {
	// start[r] is the index of rank r's first op; rank r's ops are
	// ops[start[r]:start[r+1]].
	start []int
	ops   []op
	// colls[i] is the kind and per-rank payload of collective occurrence i.
	colls []collSpec
	// slots is the number of point-to-point messages (arrival slots).
	slots int
	// events is the source program's event count, reported per replay.
	events int
	// pool recycles replay scratch between replays of this plan.
	pool sync.Pool
}

// op is one compiled event, packed into 24 bytes because a plan at scale
// holds hundreds of thousands of them. Irecv posts and Waits on eager
// Isends take no time and are compiled away.
type op struct {
	// kind is the source event's mpi.EventKind: Compute, Send or Isend,
	// Recv or a Wait completing an Irecv, or a collective.
	kind uint8
	// slot is the message's arrival slot for sends and receives, and the
	// occurrence index for collectives.
	slot int32
	// arg is a send's payload bytes or a compute segment's block ID.
	arg uint64
	// share is a compute segment's share of its block.
	share float64
}

// collSpec is what every rank must agree on at one collective occurrence.
type collSpec struct {
	kind  mpi.EventKind
	bytes uint64
}

// collState tracks one collective occurrence while ranks arrive at it.
type collState struct {
	arrived int
	maxT    float64
	done    bool
	endT    float64
}

// replayScratch is the per-replay mutable state, sized by its plan.
type replayScratch struct {
	pc      []int     // next op per rank
	collReg []int     // collectives rank r has registered arrival at
	nicFree []float64 // when rank r's NIC finishes its previous injection
	arrival []float64 // arrival time per message slot
	ready   []bool    // whether the slot's send has executed
	colls   []collState
}

// Compile validates prog (mpi.Program.Validate) and compiles it into a
// replay plan. Beyond validation it rejects programs whose ranks disagree
// on the kind or payload of a collective occurrence.
func Compile(prog *mpi.Program) (*Plan, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	type chanKey struct{ src, dst, tag int }
	// Pass 1: number the channels in first-send order and give each a
	// contiguous run of slots, one per message.
	chanID := map[chanKey]int{}
	var base []int // base[ch] is the first slot of channel ch; then its count
	p := &Plan{start: make([]int, len(prog.Ranks)+1)}
	for r, evs := range prog.Ranks {
		p.events += len(evs)
		for _, e := range evs {
			if e.Kind != mpi.Send && e.Kind != mpi.Isend {
				continue
			}
			k := chanKey{r, e.Peer, e.Tag}
			ch, ok := chanID[k]
			if !ok {
				ch = len(base)
				chanID[k] = ch
				base = append(base, 0)
			}
			base[ch]++
			p.slots++
		}
	}
	if p.events > math.MaxInt32 {
		return nil, fmt.Errorf("psins: program has %d events, more than a plan can index", p.events)
	}
	next := 0
	for ch, count := range base {
		base[ch], next = next, next+count
	}
	// Pass 2: emit ops. Sends and receives on a channel claim its slots in
	// program order; Validate guarantees the two counts match.
	sent := make([]int, len(base))
	recvd := make([]int, len(base))
	p.ops = make([]op, 0, p.events)
	// posted maps an outstanding request to its Irecv slot, or -1 for an
	// Isend. Validate guarantees every rank waits on all it posts, so the
	// map is empty again at each rank's end.
	posted := map[int]int{}
	for r, evs := range prog.Ranks {
		p.start[r] = len(p.ops)
		nColl := 0
		for _, e := range evs {
			switch e.Kind {
			case mpi.Compute:
				p.ops = append(p.ops, op{kind: uint8(e.Kind), arg: e.BlockID, share: e.Share})
			case mpi.Send, mpi.Isend:
				ch := chanID[chanKey{r, e.Peer, e.Tag}]
				slot := base[ch] + sent[ch]
				sent[ch]++
				p.ops = append(p.ops, op{kind: uint8(e.Kind), slot: int32(slot), arg: e.Bytes})
				if e.Kind == mpi.Isend {
					posted[e.Request] = -1
				}
			case mpi.Recv, mpi.Irecv:
				ch := chanID[chanKey{e.Peer, r, e.Tag}]
				slot := base[ch] + recvd[ch]
				recvd[ch]++
				if e.Kind == mpi.Irecv {
					posted[e.Request] = slot
				} else {
					p.ops = append(p.ops, op{kind: uint8(e.Kind), slot: int32(slot)})
				}
			case mpi.Wait:
				if slot := posted[e.Request]; slot >= 0 {
					p.ops = append(p.ops, op{kind: uint8(e.Kind), slot: int32(slot)})
				}
				delete(posted, e.Request)
			default: // collective
				spec := collSpec{kind: e.Kind, bytes: e.Bytes}
				if r == 0 {
					p.colls = append(p.colls, spec)
				} else if want := p.colls[nColl]; spec != want {
					return nil, fmt.Errorf("psins: rank %d collective %d is %s/%dB, rank 0 ran %s/%dB",
						r, nColl, spec.kind, spec.bytes, want.kind, want.bytes)
				}
				p.ops = append(p.ops, op{kind: uint8(e.Kind), slot: int32(nColl)})
				nColl++
			}
		}
	}
	p.start[len(prog.Ranks)] = len(p.ops)
	return p, nil
}

// numRanks returns the number of ranks in the compiled program.
func (p *Plan) numRanks() int { return len(p.start) - 1 }

// scratch returns reset replay state, reusing a previous replay's buffers
// when one is free.
func (p *Plan) scratch() *replayScratch {
	s, _ := p.pool.Get().(*replayScratch)
	if s == nil {
		n := p.numRanks()
		return &replayScratch{
			pc:      append([]int(nil), p.start[:n]...),
			collReg: make([]int, n),
			nicFree: make([]float64, n),
			arrival: make([]float64, p.slots),
			ready:   make([]bool, p.slots),
			colls:   make([]collState, len(p.colls)),
		}
	}
	copy(s.pc, p.start)
	clear(s.collReg)
	clear(s.nicFree)
	clear(s.ready)
	clear(s.colls)
	return s
}

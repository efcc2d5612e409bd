package psins

import (
	"context"
	"fmt"

	"tracex/internal/mpi"
)

// This file keeps the replay scheduler as it was before plans were
// compiled: it validates the program and matches messages through maps at
// replay time. Tests pin Plan.Replay to it bit for bit.

// refChanKey identifies an ordered point-to-point message stream.
type refChanKey struct{ src, dst, tag int }

// refCollState tracks one collective occurrence while ranks arrive at it.
type refCollState struct {
	kind    mpi.EventKind
	bytes   uint64
	arrived int
	maxT    float64
	done    bool
	endT    float64
}

// referenceReplay is the map-based reference scheduler.
func referenceReplay(ctx context.Context, prog *mpi.Program, net Network, cost ComputeCost, tl *Timeline) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if cost == nil {
		return nil, fmt.Errorf("psins: nil compute cost")
	}
	n := prog.NumRanks()
	res := &Result{
		RankEnd:     make([]float64, n),
		ComputeTime: make([]float64, n),
		CommTime:    make([]float64, n),
	}
	clock := make([]float64, n)
	pc := make([]int, n)
	collIdx := make([]int, n) // next collective occurrence index per rank
	collReg := make([]int, n) // collectives rank r has registered arrival at
	// arrivals is append-only per channel; consumed counts the slots
	// claimed by executed Recvs and posted Irecvs (MPI matches receives to
	// messages in posting order).
	arrivals := map[refChanKey][]float64{}
	consumed := map[refChanKey]int{}
	// pendingReq[r][request] is an outstanding non-blocking operation.
	type reqState struct {
		key    refChanKey
		idx    int // reserved arrival slot (receives only)
		isSend bool
	}
	pendingReq := make([]map[int]reqState, n)
	for r := range pendingReq {
		pendingReq[r] = map[int]reqState{}
	}
	// nicFree[r] is when rank r's NIC finishes injecting its previous
	// message: consecutive sends from one rank serialize at the NIC even
	// though the CPU only pays the per-message overhead.
	nicFree := make([]float64, n)
	inject := func(r int, sendTime float64, bytes uint64) float64 {
		start := sendTime
		if nicFree[r] > start {
			start = nicFree[r]
		}
		ser := net.SerializationTime(bytes)
		nicFree[r] = start + ser
		return start + ser + net.Latency()
	}
	var colls []refCollState

	done := func(r int) bool { return pc[r] >= len(prog.Ranks[r]) }
	allDone := func() bool {
		for r := 0; r < n; r++ {
			if !done(r) {
				return false
			}
		}
		return true
	}

	var replayed int
	for !allDone() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		progress := false
		for r := 0; r < n; r++ {
			// Drain as many events as possible for this rank before moving
			// on; only a blocked receive or collective stops it.
		rankLoop:
			for !done(r) {
				if replayed++; replayed&ctxCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				e := prog.Ranks[r][pc[r]]
				switch e.Kind {
				case mpi.Compute:
					dt, err := cost(r, e.BlockID, e.Share)
					if err != nil {
						return nil, fmt.Errorf("psins: rank %d block %d: %w", r, e.BlockID, err)
					}
					if dt < 0 {
						return nil, fmt.Errorf("psins: negative compute cost %g for block %d", dt, e.BlockID)
					}
					tl.add(r, mpi.Compute, clock[r], clock[r]+dt, e.BlockID)
					clock[r] += dt
					res.ComputeTime[r] += dt
					pc[r]++
				case mpi.Send:
					o := net.SendOverhead(e.Bytes)
					arrival := inject(r, clock[r]+o, e.Bytes)
					k := refChanKey{r, e.Peer, e.Tag}
					arrivals[k] = append(arrivals[k], arrival)
					tl.add(r, mpi.Send, clock[r], clock[r]+o, 0)
					clock[r] += o
					res.CommTime[r] += o
					pc[r]++
				case mpi.Recv:
					k := refChanKey{e.Peer, r, e.Tag}
					idx := consumed[k]
					if idx >= len(arrivals[k]) {
						break rankLoop // blocked: matching send not yet executed
					}
					consumed[k] = idx + 1
					arrival := arrivals[k][idx]
					start := clock[r]
					end := arrival
					if end < start {
						end = start
					}
					end += net.RecvOverhead()
					tl.add(r, mpi.Recv, start, end, 0)
					res.CommTime[r] += end - start
					clock[r] = end
					pc[r]++
				case mpi.Isend:
					// Eager non-blocking send: the CPU pays the injection
					// overhead at post time; the Wait is then free.
					o := net.SendOverhead(e.Bytes)
					arrival := inject(r, clock[r]+o, e.Bytes)
					k := refChanKey{r, e.Peer, e.Tag}
					arrivals[k] = append(arrivals[k], arrival)
					pendingReq[r][e.Request] = reqState{key: k, isSend: true}
					tl.add(r, mpi.Isend, clock[r], clock[r]+o, 0)
					clock[r] += o
					res.CommTime[r] += o
					pc[r]++
				case mpi.Irecv:
					// Posting reserves the next message slot on the channel
					// (MPI posting-order matching) and costs no time.
					k := refChanKey{e.Peer, r, e.Tag}
					pendingReq[r][e.Request] = reqState{key: k, idx: consumed[k]}
					consumed[k]++
					pc[r]++
				case mpi.Wait:
					st, ok := pendingReq[r][e.Request]
					if !ok {
						return nil, fmt.Errorf("psins: rank %d waits on unknown request %d", r, e.Request)
					}
					if st.isSend {
						delete(pendingReq[r], e.Request) // eager send: already complete
						pc[r]++
						break
					}
					if st.idx >= len(arrivals[st.key]) {
						break rankLoop // message not yet injected by the sender
					}
					arrival := arrivals[st.key][st.idx]
					start := clock[r]
					end := arrival
					if end < start {
						end = start
					}
					end += net.RecvOverhead()
					tl.add(r, mpi.Wait, start, end, 0)
					res.CommTime[r] += end - start
					clock[r] = end
					delete(pendingReq[r], e.Request)
					pc[r]++
				default: // collective
					idx := collIdx[r]
					for len(colls) <= idx {
						colls = append(colls, refCollState{kind: e.Kind, bytes: e.Bytes})
					}
					st := &colls[idx]
					if st.kind != e.Kind || st.bytes != e.Bytes {
						return nil, fmt.Errorf("psins: rank %d collective %d is %s/%dB, others ran %s/%dB",
							r, idx, e.Kind, e.Bytes, st.kind, st.bytes)
					}
					if collReg[r] == idx {
						// First visit by this rank: register arrival.
						st.arrived++
						collReg[r] = idx + 1
						if clock[r] > st.maxT {
							st.maxT = clock[r]
						}
						if st.arrived == n {
							c, err := net.CollectiveCost(st.kind, n, st.bytes)
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
					tl.add(r, e.Kind, clock[r], st.endT, 0)
					res.CommTime[r] += st.endT - clock[r]
					clock[r] = st.endT
					collIdx[r]++
					pc[r]++
				}
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("psins: replay deadlocked with %d/%d ranks incomplete",
				refUnfinished(pc, prog), n)
		}
	}
	for r := 0; r < n; r++ {
		res.RankEnd[r] = clock[r]
		if clock[r] > res.Runtime {
			res.Runtime = clock[r]
		}
	}
	res.Messages = prog.TotalMessages()
	return res, nil
}

func refUnfinished(pc []int, prog *mpi.Program) int {
	var c int
	for r, p := range pc {
		if p < len(prog.Ranks[r]) {
			c++
		}
	}
	return c
}

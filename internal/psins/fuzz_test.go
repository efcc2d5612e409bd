package psins

import (
	"context"
	"slices"
	"testing"

	"tracex/internal/mpi"
)

// fuzzProgram decodes data into a small program that is often malformed:
// out-of-range and self peers, zero payloads and shares, unknown kinds,
// unposted or duplicate requests, unmatched channels and mixed collectives
// all occur. The first byte picks the rank count (0..4); every following
// five bytes append one event to some rank.
func fuzzProgram(data []byte) *mpi.Program {
	prog := &mpi.Program{App: "fuzz"}
	if len(data) == 0 || data[0]%5 == 0 {
		return prog
	}
	n := int(data[0] % 5)
	prog.Ranks = make([][]mpi.Event, n)
	for i := 1; i+5 <= len(data) && i <= 5*48; i += 5 {
		b := data[i : i+5]
		r := int(b[0]) % n
		prog.Ranks[r] = append(prog.Ranks[r], mpi.Event{
			Kind:    mpi.EventKind(b[1] % 13), // 12 is not a kind
			Peer:    int(b[2]%byte(n+2)) - 1,  // -1 and n are out of range
			Tag:     int(b[2] / 128),
			Bytes:   uint64(b[3]%3) * 8, // 0 is an invalid payload
			BlockID: uint64(b[3] / 128),
			Share:   float64(b[4]%5) / 4, // 0 is an invalid share
			Request: int(b[4] / 128),
		})
	}
	return prog
}

// collectivesAgree reports whether every rank runs rank 0's sequence of
// collective kinds and payloads.
func collectivesAgree(prog *mpi.Program) bool {
	var first []collSpec
	for r, evs := range prog.Ranks {
		var seq []collSpec
		for _, e := range evs {
			if e.Kind.IsCollective() {
				seq = append(seq, collSpec{kind: e.Kind, bytes: e.Bytes})
			}
		}
		if r == 0 {
			first = seq
		} else if !slices.Equal(seq, first) {
			return false
		}
	}
	return true
}

// FuzzCompile checks that compiling never panics, that Compile fails
// exactly when Program.Validate does or the ranks disagree on a
// collective, and that a compiled plan replays exactly as the reference
// scheduler does, deadlocks included.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 1})
	// Two ranks: a send 0→1 matched by a receive, then an allreduce each.
	f.Add([]byte{2, 0, 1, 2, 8, 0, 1, 2, 1, 8, 0, 0, 7, 0, 8, 0, 1, 7, 0, 8, 0})
	// Two ranks: a nonblocking exchange with waits.
	f.Add([]byte{2, 0, 3, 2, 8, 0, 0, 4, 2, 8, 128, 0, 5, 0, 8, 0, 0, 5, 0, 8, 128,
		1, 3, 1, 8, 0, 1, 4, 1, 8, 128, 1, 5, 0, 8, 0, 1, 5, 0, 8, 128})
	// Mismatched collectives.
	f.Add([]byte{2, 0, 6, 0, 0, 0, 1, 7, 0, 8, 0})
	net, err := NewNetwork(testNetCfg)
	if err != nil {
		f.Fatal(err)
	}
	cost := func(rank int, blockID uint64, share float64) (float64, error) {
		return 0.001 * share * float64(1+rank+int(blockID)), nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := fuzzProgram(data)
		plan, err := Compile(prog)
		verr := prog.Validate()
		if want := verr != nil || !collectivesAgree(prog); (err != nil) != want {
			t.Fatalf("Compile error %v, Validate error %v, collectives agree %v",
				err, verr, collectivesAgree(prog))
		}
		if err != nil {
			return
		}
		ctx := context.Background()
		var tlRef, tlPlan Timeline
		ref, rerr := referenceReplay(ctx, prog, net, cost, &tlRef)
		got, perr := plan.Replay(ctx, net, cost, &tlPlan)
		switch {
		case (rerr != nil) != (perr != nil):
			t.Fatalf("reference error %v, plan error %v", rerr, perr)
		case rerr != nil:
			if rerr.Error() != perr.Error() {
				t.Fatalf("reference error %q, plan error %q", rerr, perr)
			}
		case !sameReplay(ref, got, &tlRef, &tlPlan):
			t.Fatalf("plan replay %+v differs from reference %+v", got, ref)
		}
	})
}

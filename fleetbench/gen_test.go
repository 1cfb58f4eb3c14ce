package main

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/server"
)

// The input digest names the request stream: the same seed must give
// the same digest and another seed another one, for every workload.
func TestDigestFollowsSeed(t *testing.T) {
	digest := func(wl string, seed uint64) string {
		in, err := generate(wl, seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := in.digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, wl := range workloadNames {
		a, again, other := digest(wl, 1), digest(wl, 1), digest(wl, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave digests %s and %s", wl, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 share digest %s", wl, a)
		}
	}
}

// The answer checks must reject answers that break the contract.
func TestCheckSolveRejectsBadAnswers(t *testing.T) {
	in := instance.Instance{M: 2, Jobs: []instance.Job{{ID: 0, Size: 4, Cost: 1}, {ID: 1, Size: 3, Cost: 1}, {ID: 2, Size: 3, Cost: 1}}, Assign: []int{0, 0, 0}}
	req := &server.SolveRequest{Solver: "mpartition", K: 1, Instance: instance.Extended{Instance: in}}
	good := server.SolveResponse{Assign: []int{1, 0, 0}, Makespan: 6, Moves: 1, MoveCost: 1, InitialMakespan: 10, LowerBound: 5}
	if _, err := checkSolve(req, &good); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	bad := map[string]func(r *server.SolveResponse){
		"makespan":    func(r *server.SolveResponse) { r.Makespan = 5 },
		"too many":    func(r *server.SolveResponse) { r.Assign = []int{1, 1, 0}; r.Makespan, r.Moves, r.MoveCost = 7, 2, 2 },
		"short":       func(r *server.SolveResponse) { r.Assign = []int{1, 0} },
		"range":       func(r *server.SolveResponse) { r.Assign = []int{2, 0, 0} },
		"lower bound": func(r *server.SolveResponse) { r.LowerBound = 4 },
	}
	for name, mutate := range bad {
		r := good
		mutate(&r)
		if _, err := checkSolve(req, &r); err == nil {
			t.Errorf("%s: bad answer accepted", name)
		}
	}
}

func TestBruteOpt(t *testing.T) {
	in := &instance.Instance{M: 2, Jobs: []instance.Job{{ID: 0, Size: 4, Cost: 5}, {ID: 1, Size: 3, Cost: 1}, {ID: 2, Size: 3, Cost: 1}}, Assign: []int{0, 0, 0}}
	for _, c := range []struct {
		k      int
		budget int64
		want   int64
	}{{0, -1, 10}, {1, -1, 6}, {2, -1, 6}, {-1, 1, 7}, {-1, 2, 6}} {
		if got := bruteOpt(in, c.k, c.budget); got != c.want {
			t.Errorf("k=%d budget=%d: optimum %d, want %d", c.k, c.budget, got, c.want)
		}
	}
}

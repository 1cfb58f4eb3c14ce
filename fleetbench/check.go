package main

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"strconv"

	"repro/internal/instance"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Every answer is checked with the benchmark's own arithmetic over the
// instance it sent; nothing here calls the repository's verifiers.

// lowerBound is max(ceil(Σs/m), max s).
func lowerBound(sizes []int64, m int) int64 {
	var total, biggest int64
	for _, s := range sizes {
		total += s
		biggest = max(biggest, s)
	}
	return max((total+int64(m)-1)/int64(m), biggest)
}

func jobSizes(in *instance.Instance) []int64 {
	s := make([]int64, len(in.Jobs))
	for j, job := range in.Jobs {
		s[j] = job.Size
	}
	return s
}

func makespanOf(in *instance.Instance, assign []int) int64 {
	loads := make([]int64, in.M)
	for j, p := range assign {
		loads[p] += in.Jobs[j].Size
	}
	return slices.Max(loads)
}

// checkSolve verifies one solve answer against the request: a well
// formed assignment whose recomputed makespan, moves and move cost are
// the reported ones, within the request's move or cost budget, no worse
// than the initial assignment and no better than the lower bound. It
// returns the answer's makespan over the lower bound.
func checkSolve(req *server.SolveRequest, resp *server.SolveResponse) (float64, error) {
	in := &req.Instance.Instance
	if len(resp.Assign) != in.N() {
		return 0, fmt.Errorf("assignment has %d entries for %d jobs", len(resp.Assign), in.N())
	}
	loads := make([]int64, in.M)
	moves, cost := 0, int64(0)
	for j, p := range resp.Assign {
		if p < 0 || p >= in.M {
			return 0, fmt.Errorf("job %d on processor %d of %d", j, p, in.M)
		}
		loads[p] += in.Jobs[j].Size
		if p != in.Assign[j] {
			moves++
			cost += in.Jobs[j].Cost
		}
	}
	ms, initial, lb := slices.Max(loads), makespanOf(in, in.Assign), lowerBound(jobSizes(in), in.M)
	switch {
	case ms != resp.Makespan:
		return 0, fmt.Errorf("reported makespan %d, recomputed %d", resp.Makespan, ms)
	case moves != resp.Moves || cost != resp.MoveCost:
		return 0, fmt.Errorf("reported %d moves at cost %d, recomputed %d at %d", resp.Moves, resp.MoveCost, moves, cost)
	case req.K > 0 && moves > req.K:
		return 0, fmt.Errorf("%d moves exceed k=%d", moves, req.K)
	case req.Budget > 0 && cost > req.Budget:
		return 0, fmt.Errorf("move cost %d exceeds budget %d", cost, req.Budget)
	case ms > initial:
		return 0, fmt.Errorf("makespan %d worse than the initial %d", ms, initial)
	case ms < lb:
		return 0, fmt.Errorf("makespan %d below the lower bound %d", ms, lb)
	case resp.InitialMakespan != initial || resp.LowerBound != lb:
		return 0, fmt.Errorf("reported initial/lower bound %d/%d, recomputed %d/%d", resp.InitialMakespan, resp.LowerBound, initial, lb)
	}
	return float64(ms) / float64(lb), nil
}

// sameAnswer reports whether a served answer repeats the reference one.
func sameAnswer(a, b *server.SolveResponse) bool {
	return a.Makespan == b.Makespan && a.Moves == b.Moves && a.MoveCost == b.MoveCost &&
		a.InitialMakespan == b.InitialMakespan && a.LowerBound == b.LowerBound && slices.Equal(a.Assign, b.Assign)
}

// mirror is the client-side copy of one session: job sizes and places,
// rebuilt only from the deltas sent and the migrations returned.
type mirror struct {
	m    int
	size map[int]int64
	proc map[int]int
}

func newMirror(seed *instance.Instance) *mirror {
	mr := &mirror{m: seed.M, size: map[int]int64{}, proc: map[int]int{}}
	for j, job := range seed.Jobs {
		mr.size[j], mr.proc[j] = job.Size, seed.Assign[j]
	}
	return mr
}

func (mr *mirror) loads() []int64 {
	l := make([]int64, mr.m)
	for j, p := range mr.proc {
		l[p] += mr.size[j]
	}
	return l
}

func (mr *mirror) lowerBound() int64 {
	var total, biggest int64
	for _, s := range mr.size {
		total += s
		biggest = max(biggest, s)
	}
	return max((total+int64(mr.m)-1)/int64(mr.m), biggest)
}

// checkState compares a reported session state with the mirror.
func (mr *mirror) checkState(st *server.SessionState) error {
	if st.M != mr.m || st.N != len(mr.size) {
		return fmt.Errorf("state has n=%d m=%d, mirror n=%d m=%d", st.N, st.M, len(mr.size), mr.m)
	}
	loads := mr.loads()
	if !slices.Equal(st.Loads, loads) {
		return fmt.Errorf("reported loads %v, mirror %v", st.Loads, loads)
	}
	if st.Makespan != slices.Max(loads) {
		return fmt.Errorf("reported makespan %d, mirror %d", st.Makespan, slices.Max(loads))
	}
	if lb := mr.lowerBound(); st.LowerBound != lb {
		return fmt.Errorf("reported lower bound %d, mirror %d", st.LowerBound, lb)
	}
	return nil
}

// apply advances the mirror by one delta and its answer, checking the
// answer on the way: migrations start where the mirror has the job,
// the rebalance moves at most k jobs and does not raise the makespan,
// and the final state equals the mirror's. It returns the makespan over
// the lower bound.
func (mr *mirror) apply(d *server.SessionDeltaRequest, res *server.SessionDeltaResult, k int) (float64, error) {
	switch d.Op {
	case "arrive":
		mr.size[d.Job], mr.proc[d.Job] = d.Size, *d.Proc
	case "depart":
		delete(mr.size, d.Job)
		delete(mr.proc, d.Job)
	case "resize":
		mr.size[d.Job] = d.Size
	case "proc_add":
		mr.m++
	case "proc_drain":
		p := *d.Proc
		forced := map[int]int{}
		for _, mv := range res.Forced {
			if mv.From != p || mr.proc[mv.Job] != p {
				return 0, fmt.Errorf("forced move %+v does not leave drained processor %d", mv, p)
			}
			forced[mv.Job] = mv.To
		}
		for j, q := range mr.proc {
			switch {
			case q == p:
				to, ok := forced[j]
				if !ok || to < 0 || to >= mr.m-1 {
					return 0, fmt.Errorf("job %d left on drained processor %d", j, p)
				}
				mr.proc[j] = to
			case q > p:
				mr.proc[j] = q - 1
			}
		}
		mr.m--
	}
	if len(res.Forced) > 0 && d.Op != "proc_drain" {
		return 0, fmt.Errorf("%s delta reported %d forced moves", d.Op, len(res.Forced))
	}
	if len(res.Moves) > k {
		return 0, fmt.Errorf("%d rebalance moves exceed k=%d", len(res.Moves), k)
	}
	before := slices.Max(mr.loads())
	for _, mv := range res.Moves {
		if q, ok := mr.proc[mv.Job]; !ok || q != mv.From || mv.To < 0 || mv.To >= mr.m {
			return 0, fmt.Errorf("move %+v does not match the mirror", mv)
		}
		mr.proc[mv.Job] = mv.To
	}
	if err := mr.checkState(&res.SessionState); err != nil {
		return 0, err
	}
	if res.Makespan > before {
		return 0, fmt.Errorf("rebalance raised the makespan from %d to %d", before, res.Makespan)
	}
	return float64(res.Makespan) / float64(mr.lowerBound()), nil
}

// bruteOpt is the optimum makespan over every assignment of a tiny
// instance that moves at most k jobs (k ≥ 0) or costs at most budget.
func bruteOpt(in *instance.Instance, k int, budget int64) int64 {
	n := in.N()
	loads := make([]int64, in.M)
	best := int64(-1)
	var rec func(j, moves int, cost int64)
	rec = func(j, moves int, cost int64) {
		if j == n {
			if ms := slices.Max(loads); best < 0 || ms < best {
				best = ms
			}
			return
		}
		for p := 0; p < in.M; p++ {
			mv, c := moves, cost
			if p != in.Assign[j] {
				mv, c = mv+1, c+in.Jobs[j].Cost
			}
			if (k >= 0 && mv > k) || (budget >= 0 && c > budget) {
				continue
			}
			loads[p] += in.Jobs[j].Size
			rec(j+1, mv, c)
			loads[p] -= in.Jobs[j].Size
		}
	}
	rec(0, 0, 0)
	return best
}

// guaranteeRe parses the registry's stated ratio: "1.5" or "1.5(1+eps)".
var guaranteeRe = regexp.MustCompile(`^([0-9.]+)(\(1\+eps\))?$`)

// budgetEps is the §3.2 solver's default knapsack slack (core.BudgetOptions);
// a budget request cannot set it, so the served guarantee is 1.5·(1+0.1).
const budgetEps = 0.1

// guarantee fetches a solver's approximation ratio from the fleet's
// catalog.
func guarantee(ctx context.Context, cl *client.Client, solver string) (float64, error) {
	infos, err := cl.Solvers(ctx)
	if err != nil {
		return 0, err
	}
	for _, info := range infos {
		if info.Name != solver {
			continue
		}
		m := guaranteeRe.FindStringSubmatch(info.Guarantee)
		if m == nil {
			return 0, fmt.Errorf("solver %s states guarantee %q, which the benchmark cannot read", solver, info.Guarantee)
		}
		ratio, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return 0, err
		}
		if m[2] != "" {
			ratio *= 1 + budgetEps
		}
		return ratio, nil
	}
	return 0, fmt.Errorf("solver %s not in the catalog", solver)
}

// checkTiny solves a handful of tiny instances through the fleet and
// holds each answer to the registry's guarantee over the brute-force
// optimum. It runs outside every timed span.
func checkTiny(ctx context.Context, cl *client.Client, seed uint64, solver string) error {
	ratio, err := guarantee(ctx, cl, solver)
	if err != nil {
		return err
	}
	r := newRNG(seed, 999)
	for i := 0; i < 12; i++ {
		n, m := 6+r.intn(3), 2+r.intn(2)
		ext := genInstance(r, n, m, solver == "budget")
		req := server.SolveRequest{Solver: solver, Instance: ext}
		k, budget := -1, int64(-1)
		if solver == "budget" {
			var total int64
			for _, j := range ext.Jobs {
				total += j.Cost
			}
			req.Budget = 1 + total/int64(2+r.intn(3))
			budget = req.Budget
		} else {
			req.K = 1 + r.intn(3)
			k = req.K
		}
		resp, err := cl.Solve(ctx, req)
		if err != nil {
			return fmt.Errorf("tiny %s instance %d: %w", solver, i, err)
		}
		if _, err := checkSolve(&req, resp); err != nil {
			return fmt.Errorf("tiny %s instance %d: %w", solver, i, err)
		}
		opt := bruteOpt(&ext.Instance, k, budget)
		if float64(resp.Makespan) > ratio*float64(opt)+1e-9 {
			return fmt.Errorf("tiny %s instance %d: makespan %d exceeds %.3g x optimum %d", solver, i, resp.Makespan, ratio, opt)
		}
	}
	return nil
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/instance"
	"repro/internal/server"
)

// Workload shapes. The generator below is the benchmark's own, so a
// change to the repository's workload package cannot change the inputs.
const (
	hitKeys      = 256     // distinct hit-routed instances
	hitZipfS     = 1.1     // key popularity exponent
	hitStreamLen = 1 << 16 // key draws; the loop cycles through them
	hitJobs      = 200
	hitM         = 16
	hitK         = 10

	missPool   = 3000 // distinct miss-budget instances; a run stops if it uses them all
	missJobs   = 200
	missM      = 16
	missBudget = 2000

	sessCount     = 8
	sessJobs      = 240
	sessM         = 8
	sessK         = 6
	sessStreamLen = 60000 // deltas per session; a run stops if one uses them all

	maxSize = 1000
	sizeExp = 1.2 // bounded-Pareto exponent of job sizes
)

// rng is splitmix64: tiny, fast, and fixed forever, so a seed names the
// same inputs on every commit.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// size draws a job size from a bounded Pareto over [1, maxSize]:
// many small jobs and a heavy tail.
func (r *rng) size() int64 {
	a := sizeExp
	lo, hi := 1.0, float64(maxSize)
	x := math.Pow(math.Pow(lo, 1-a)+r.float()*(math.Pow(hi, 1-a)-math.Pow(lo, 1-a)), 1/(1-a))
	return min(max(int64(x), 1), maxSize)
}

// skewedProc places a job with probability proportional to 1/(p+1),
// which loads the low processors and leaves work for the rebalancer.
func (r *rng) skewedProc(m int) int {
	total := 0.0
	for p := 0; p < m; p++ {
		total += 1 / float64(p+1)
	}
	u := r.float() * total
	for p := 0; p < m; p++ {
		u -= 1 / float64(p+1)
		if u <= 0 {
			return p
		}
	}
	return m - 1
}

// genInstance draws n jobs on m processors with skewed placement; cost
// is 1 (the k-move model) or the job's size (proportional costs).
func genInstance(r *rng, n, m int, proportional bool) instance.Extended {
	in := instance.Instance{M: m, Jobs: make([]instance.Job, n), Assign: make([]int, n)}
	for j := range in.Jobs {
		s := r.size()
		c := int64(1)
		if proportional {
			c = s
		}
		in.Jobs[j] = instance.Job{ID: j, Size: s, Cost: c}
	}
	for j := range in.Assign {
		in.Assign[j] = r.skewedProc(m)
	}
	return instance.Extended{Instance: in}
}

// zipfSeq draws n ranks in [0, keys) with P(rank r) ∝ (r+1)^-s.
func zipfSeq(r *rng, s float64, keys, n int) []int {
	cum := make([]float64, keys)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	out := make([]int, n)
	for i := range out {
		out[i] = min(sort.SearchFloat64s(cum, r.float()*total), keys-1)
	}
	return out
}

// inputs is one workload's generated request stream. Exactly one of
// the three groups is filled.
type inputs struct {
	name string
	// hit-routed: distinct requests and the key stream over them.
	hitReqs []server.SolveRequest
	hitSeq  []int
	// miss-budget: one distinct request per operation.
	missReqs []server.SolveRequest
	// session-churn: per session, the create request and its delta
	// stream.
	sessCreate []server.SessionRequest
	sessDeltas [][]server.SessionDeltaRequest
}

var workloadNames = []string{"hit-routed", "miss-budget", "session-churn"}

// generate builds a workload's inputs from the seed alone.
func generate(name string, seed uint64) (*inputs, error) {
	in := &inputs{name: name}
	switch name {
	case "hit-routed":
		r := newRNG(seed, 1)
		in.hitReqs = make([]server.SolveRequest, hitKeys)
		for i := range in.hitReqs {
			in.hitReqs[i] = server.SolveRequest{Solver: "mpartition", K: hitK, Instance: genInstance(r, hitJobs, hitM, false)}
		}
		in.hitSeq = zipfSeq(newRNG(seed, 2), hitZipfS, hitKeys, hitStreamLen)
	case "miss-budget":
		r := newRNG(seed, 3)
		in.missReqs = make([]server.SolveRequest, missPool)
		for i := range in.missReqs {
			in.missReqs[i] = server.SolveRequest{Solver: "budget", Budget: missBudget, Instance: genInstance(r, missJobs, missM, true)}
		}
	case "session-churn":
		in.sessCreate = make([]server.SessionRequest, sessCount)
		in.sessDeltas = make([][]server.SessionDeltaRequest, sessCount)
		for s := 0; s < sessCount; s++ {
			r := newRNG(seed, uint64(100+s))
			ext := genInstance(r, sessJobs, sessM, false)
			in.sessCreate[s] = server.SessionRequest{Instance: &ext, MoveBudget: sessK}
			in.sessDeltas[s] = genDeltas(r, &ext.Instance, sessStreamLen)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	return in, nil
}

// genDeltas draws a delta stream that is valid whatever placements the
// server chooses: it tracks only the live job ids and the processor
// count, which no answer can change. Arrivals name their processor, so
// the client-side mirror never has to guess a tie-break. Both counts
// revert to the seed's n and m, so the work per delta does not drift
// with the seed the way a free random walk would.
func genDeltas(r *rng, seed *instance.Instance, n int) []server.SessionDeltaRequest {
	live := make([]int, seed.N())
	for j := range live {
		live[j] = j
	}
	nextID, m := seed.N(), seed.M
	out := make([]server.SessionDeltaRequest, n)
	for i := range out {
		if u := r.float(); u < 0.04 {
			// A processor change; it moves m back toward the seed's m.
			if m < seed.M || m == seed.M && u < 0.02 {
				out[i] = server.SessionDeltaRequest{Op: "proc_add"}
				m++
			} else {
				p := r.intn(m)
				out[i] = server.SessionDeltaRequest{Op: "proc_drain", Proc: &p}
				m--
			}
			continue
		}
		// Arrivals are likelier below the seed's job count, departures
		// above it; a third of the job deltas are resizes.
		arrive := min(max(1.0/3+float64(seed.N()-len(live))/100, 0.05), 0.6)
		switch v := r.float(); {
		case v < arrive:
			p := r.intn(m)
			out[i] = server.SessionDeltaRequest{Op: "arrive", Job: nextID, Size: r.size(), Cost: 1, Proc: &p}
			live = append(live, nextID)
			nextID++
		case v < 2.0/3:
			k := r.intn(len(live))
			out[i] = server.SessionDeltaRequest{Op: "depart", Job: live[k]}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			out[i] = server.SessionDeltaRequest{Op: "resize", Job: live[r.intn(len(live))], Size: r.size()}
		}
	}
	return out
}

// digest is the SHA-256 of the request stream as it goes on the wire:
// every distinct request body in order, plus the key sequence for the
// hit workload.
func (in *inputs) digest() (string, error) {
	h := sha256.New()
	put := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
		return nil
	}
	for i := range in.hitReqs {
		if err := put(&in.hitReqs[i]); err != nil {
			return "", err
		}
	}
	var b [4]byte
	for _, k := range in.hitSeq {
		binary.LittleEndian.PutUint32(b[:], uint32(k))
		h.Write(b[:])
	}
	for i := range in.missReqs {
		if err := put(&in.missReqs[i]); err != nil {
			return "", err
		}
	}
	for s := range in.sessCreate {
		if err := put(&in.sessCreate[s]); err != nil {
			return "", err
		}
		for i := range in.sessDeltas[s] {
			if err := put(&in.sessDeltas[s][i]); err != nil {
				return "", err
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Command fleetbench starts a real rebalancing fleet — a rebalrouter in
// front of two rebalanced shards, each its own process on loopback —
// drives it in a closed loop over TCP, checks every answer with its own
// arithmetic, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer ones) as one JSON object on the last line of its output.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash fleetbench/run.sh --workload hit-routed --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// setupRounds is how many times a run launches and prepares the fleet;
// setup_s is the median, and the last fleet is the one measured.
const setupRounds = 5

func main() {
	workload := flag.String("workload", "", "workload to run: hit-routed, miss-budget or session-churn")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measured closed loop")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the rebalanced and rebalrouter binaries")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		stop()
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// prepared is a launched fleet made ready for one workload.
type prepared struct {
	f       *fleet
	in      *inputs
	clients []*client.Client // the closed loop's, one per connection
	wires   []*wire
	// hit-routed: the first answer served for each key.
	ref      []*server.SolveResponse
	refRatio []float64
	// session-churn: the open sessions and their client-side mirrors.
	sessions []*client.Session
	mirrors  []*mirror
}

func bench(ctx context.Context, workload string, seed uint64, dur time.Duration, trace bool, bin string) (*result, error) {
	if !slices.Contains(workloadNames, workload) {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", workload, workloadNames)
	}
	for _, name := range []string{"rebalanced", "rebalrouter"} {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			return nil, fmt.Errorf("fleet binary missing (run.sh builds it): %w", err)
		}
	}
	logDir := filepath.Join(filepath.Dir(bin), "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}

	rounds := setupRounds
	if trace {
		rounds = 1
	}
	var p *prepared
	defer func() {
		if p != nil {
			p.f.stop()
		}
	}()
	// Each set-up's wall time, and the same net of host steal: the
	// ticks stolen from the two CPUs during it, split between them.
	var setups, netSetups []float64
	var firstRef []*server.SolveResponse
	for i := 0; i < rounds; i++ {
		if p != nil {
			p.f.stop()
		}
		var took time.Duration
		steal0, err := stealTicks()
		if err != nil {
			return nil, err
		}
		p, took, err = setup(ctx, workload, seed, bin, logDir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		steal1, err := stealTicks()
		if err != nil {
			return nil, err
		}
		stolen := time.Duration(steal1-steal0) * clockTick / 2
		setups, netSetups = append(setups, took.Seconds()), append(netSetups, (took-stolen).Seconds())
		if firstRef == nil {
			firstRef = p.ref
		}
		for k := range p.ref {
			if !sameAnswer(p.ref[k], firstRef[k]) {
				return nil, fmt.Errorf("key %d: a fresh fleet's first answer differs from the previous fleet's", k)
			}
		}
	}

	digest, err := p.in.digest()
	if err != nil {
		return nil, err
	}
	fmt.Printf("inputs: workload=%s seed=%d sha256=%s\n", workload, seed, digest)

	// The brute-force checks run outside every timed span.
	solver := "mpartition"
	if workload == "miss-budget" {
		solver = "budget"
	}
	if err := checkTiny(ctx, client.New(p.f.routerURL, nil), seed, solver); err != nil {
		return nil, fmt.Errorf("brute-force check: %w", err)
	}

	var before []shardReading
	if trace {
		if before, err = readShards(ctx, p.f); err != nil {
			return nil, err
		}
	}
	steal0, err := stealTicks()
	if err != nil {
		return nil, err
	}
	cpu0, err := p.f.cpu()
	if err != nil {
		return nil, err
	}
	for _, w := range p.wires {
		w.n.Store(0)
	}

	var st *loopStats
	switch workload {
	case "hit-routed":
		st = runHit(ctx, p, dur)
	case "miss-budget":
		st = runMiss(ctx, p, dur)
	case "session-churn":
		st = runSessions(ctx, p, dur)
	}

	cpu1, err := p.f.cpu()
	if err != nil {
		return nil, err
	}
	steal1, err := stealTicks()
	if err != nil {
		return nil, err
	}
	peak, err := p.f.rss("VmHWM:")
	if err != nil {
		return nil, err
	}
	if err := p.f.alive(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if st.exhausted {
		return nil, errors.New("the closed loop used up its generated inputs before the run ended; raise the pool size")
	}
	if st.err != nil {
		// A wrong answer stops the loop early; its figures mean nothing.
		fmt.Fprintln(os.Stderr, "fleetbench: answer check failed:", st.err)
		return &result{Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metric{}}, nil
	}
	done := st.attempted - st.failed
	if done == 0 {
		return nil, fmt.Errorf("no operation completed (%d failed)", st.failed)
	}
	var wireBytes int64
	for _, w := range p.wires {
		wireBytes += w.n.Load()
	}
	sd := st.steady()
	if sd.windows < 2 {
		return nil, errors.New("the loop is shorter than two host-noise windows")
	}
	fleetCPU := cpu1 - cpu0
	fmt.Printf("host: steal_ticks=%d loop_s=%.3f fleet_cpu_s=%.3f ops=%d whole_loop: setup_s=%.6g throughput_ops=%.6g p50_ms=%.6g p99_ms=%.6g fleet_cpu_ms_per_op=%.6g peak_rss_mb=%.6g\n",
		steal1-steal0, st.elapsed.Seconds(), fleetCPU.Seconds(), done, median(setups),
		float64(done)/st.elapsed.Seconds(), ms(percentile(st.lat, 0.5)), ms(percentile(st.lat, 0.99)), ms(fleetCPU)/float64(done), float64(peak)/(1<<20))

	res := &result{Correct: true, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	if !trace {
		put("setup_s", "s", median(netSetups))
		put("throughput_ops", "1/s", sd.throughput)
		put("p50_ms", "ms", ms(sd.p50))
		put("fleet_cpu_ms_per_op", "ms", ms(sd.cpuPerOp))
		put("fleet_rss_mb", "MiB", median(st.rss)/(1<<20))
		put("wire_kb_per_op", "KiB", float64(wireBytes)/1024/float64(done))
		ratio := st.ratioSum / float64(done)
		if workload == "hit-routed" {
			// Every hit repeats its key's first answer, so the mean runs
			// over the distinct instances rather than the Zipf weights.
			ratio = mean(p.refRatio)
		}
		put("makespan_ratio", "ratio", ratio)
		return res, nil
	}
	after, err := readShards(ctx, p.f)
	if err != nil {
		return nil, err
	}
	if err := layers(ctx, p, st, sd, before, after, put); err != nil {
		return nil, err
	}
	put("trace.throughput_ops", "1/s", sd.throughput)
	return res, nil
}

// setup launches a fleet and makes it ready for the workload: inputs
// generated, every hit key primed through the router, or every session
// opened on its shard. The returned duration is setup_s.
func setup(ctx context.Context, workload string, seed uint64, bin, logDir string) (*prepared, time.Duration, error) {
	start := time.Now()
	gen := make(chan *inputs, 1)
	var genErr error
	go func() {
		in, err := generate(workload, seed)
		genErr = err
		gen <- in
	}()
	f, err := startFleet(ctx, bin, logDir)
	in := <-gen
	if err != nil {
		return nil, 0, err
	}
	p := &prepared{f: f, in: in}
	if genErr != nil {
		f.stop()
		return nil, 0, genErr
	}
	for w := 0; w < conns; w++ {
		base := f.routerURL
		if workload == "session-churn" {
			base = f.shards[w]
		}
		p.wires = append(p.wires, &wire{})
		p.clients = append(p.clients, client.New(base, httpClient(p.wires[w])))
	}
	switch workload {
	case "hit-routed":
		err = prime(ctx, p)
	case "session-churn":
		err = openSessions(ctx, p)
	}
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	return p, time.Since(start), nil
}

// prime sends every distinct hit key through the router once, checks
// each answer, and keeps it as the reference later hits must repeat.
func prime(ctx context.Context, p *prepared) error {
	n := len(p.in.hitReqs)
	p.ref, p.refRatio = make([]*server.SolveResponse, n), make([]float64, n)
	errs := make([]error, conns)
	done := make(chan struct{})
	for w := 0; w < conns; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for k := w; k < n; k += conns {
				resp, err := p.clients[w].Solve(ctx, p.in.hitReqs[k])
				if err == nil {
					p.refRatio[k], err = checkSolve(&p.in.hitReqs[k], resp)
				}
				if err != nil {
					errs[w] = fmt.Errorf("priming key %d: %w", k, err)
					return
				}
				p.ref[k] = resp
			}
		}(w)
	}
	for w := 0; w < conns; w++ {
		<-done
	}
	return errors.Join(errs...)
}

// openSessions creates every session on its shard (session s on shard
// s mod 2) and checks its first state against the mirror.
func openSessions(ctx context.Context, p *prepared) error {
	for s, req := range p.in.sessCreate {
		sess, st, err := p.clients[s%shardCount].OpenSession(ctx, req)
		if err != nil {
			return fmt.Errorf("open session %d: %w", s, err)
		}
		mr := newMirror(&req.Instance.Instance)
		if err := mr.checkState(st); err != nil {
			return fmt.Errorf("session %d create: %w", s, err)
		}
		p.sessions = append(p.sessions, sess)
		p.mirrors = append(p.mirrors, mr)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank q-quantile.
func percentile[T int64 | time.Duration](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

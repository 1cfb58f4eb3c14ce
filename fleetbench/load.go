package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// conns is the number of closed-loop connections: one per CPU of the
// reference host, each sending its next operation only when the
// previous answer has arrived.
const conns = 2

// wire counts the bytes that cross the fleet's front door.
type wire struct{ n atomic.Int64 }

type countingConn struct {
	net.Conn
	w *wire
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.w.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.w.n.Add(int64(n))
	return n, err
}

// httpClient returns a client whose connections are counted in w.
func httpClient(w *wire) *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c, w}, nil
		},
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// loopStats is what one closed-loop run observed.
type loopStats struct {
	attempted, failed int
	lat               []time.Duration
	ends              []time.Duration // when each answer arrived, from the loop's start
	start             time.Time
	readings          // host steal, fleet CPU and RSS at each window boundary
	ratioSum          float64
	elapsed           time.Duration
	exhausted         bool
	// From solve answers: the shard's own phase timings and cache use.
	queueNS, cacheNS, solveNS []int64
	hits, misses              int
	// From session answers.
	migrations int
	sent       []int // deltas sent per session
	served     [][]int64
	sample     any   // one served answer, for timing the client's decode
	err        error // first failed answer check
}

func (s *loopStats) merge(o *loopStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.lat = append(s.lat, o.lat...)
	s.ends = append(s.ends, o.ends...)
	s.ratioSum += o.ratioSum
	s.exhausted = s.exhausted || o.exhausted
	s.queueNS = append(s.queueNS, o.queueNS...)
	s.cacheNS = append(s.cacheNS, o.cacheNS...)
	s.solveNS = append(s.solveNS, o.solveNS...)
	s.hits += o.hits
	s.misses += o.misses
	s.migrations += o.migrations
	if s.err == nil {
		s.err = o.err
	}
	if s.sample == nil {
		s.sample = o.sample
	}
}

// record times an operation that started at t0 and has just answered.
func (s *loopStats) record(t0 time.Time) {
	now := time.Now()
	s.lat = append(s.lat, now.Sub(t0))
	s.ends = append(s.ends, now.Sub(s.start))
}

func (s *loopStats) solved(resp *server.SolveResponse) {
	if s.sample == nil {
		s.sample = resp
	}
	s.queueNS = append(s.queueNS, resp.Timing.QueueNS)
	s.cacheNS = append(s.cacheNS, resp.Timing.CacheNS)
	s.solveNS = append(s.solveNS, resp.Timing.SolveNS)
	switch resp.Cache {
	case "hit":
		s.hits++
	case "miss":
		s.misses++
	}
}

// closedLoop runs body on conns workers until the deadline and merges
// what they saw. body runs one round and reports false to stop its
// worker early: its input stream is used up, or an operation failed.
func closedLoop(ctx context.Context, f *fleet, dur time.Duration, body func(w int, st *loopStats) bool) *loopStats {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]*loopStats, conns)
	stop := make(chan struct{})
	sampled := make(chan readings, 1)
	go func() { sampled <- sampleWindows(f, stop) }()
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = &loopStats{start: start}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := parts[w]
			for ctx.Err() == nil && time.Now().Before(deadline) && st.err == nil {
				if !body(w, st) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := &loopStats{elapsed: time.Since(start)}
	close(stop)
	total.readings = <-sampled
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// runHit replays the Zipf key stream through the router; every answer
// must repeat the first one served for its key.
func runHit(ctx context.Context, p *prepared, dur time.Duration) *loopStats {
	var next atomic.Int64
	seq := p.in.hitSeq
	return closedLoop(ctx, p.f, dur, func(w int, st *loopStats) bool {
		key := seq[int(next.Add(1)-1)%len(seq)]
		t0 := time.Now()
		resp, err := p.clients[w].Solve(ctx, p.in.hitReqs[key])
		st.attempted++
		if err != nil {
			st.failed++
			return true
		}
		st.record(t0)
		st.solved(resp)
		if !sameAnswer(resp, p.ref[key]) {
			st.err = fmt.Errorf("hit on key %d differs from the first answer served for it", key)
		}
		return true
	})
}

// runMiss sends each distinct budget instance once through the router.
func runMiss(ctx context.Context, p *prepared, dur time.Duration) *loopStats {
	var next atomic.Int64
	reqs := p.in.missReqs
	return closedLoop(ctx, p.f, dur, func(w int, st *loopStats) bool {
		i := int(next.Add(1) - 1)
		if i >= len(reqs) {
			st.exhausted = true
			return false
		}
		t0 := time.Now()
		resp, err := p.clients[w].Solve(ctx, reqs[i])
		st.attempted++
		if err != nil {
			st.failed++
			return true
		}
		st.record(t0)
		st.solved(resp)
		ratio, err := checkSolve(&reqs[i], resp)
		if err != nil {
			st.err = fmt.Errorf("budget instance %d: %w", i, err)
		}
		st.ratioSum += ratio
		return true
	})
}

// runSessions streams each session's deltas straight to its shard;
// worker w owns the sessions on shard w and sends one delta to each of
// them per round.
func runSessions(ctx context.Context, p *prepared, dur time.Duration) *loopStats {
	cursor := make([]int, sessCount)
	served := make([][]int64, sessCount)
	st := closedLoop(ctx, p.f, dur, func(w int, st *loopStats) bool {
		for s := w; s < sessCount; s += shardCount {
			i := cursor[s]
			if i >= len(p.in.sessDeltas[s]) {
				st.exhausted = true
				return false
			}
			d := &p.in.sessDeltas[s][i]
			t0 := time.Now()
			res, err := p.sessions[s].Delta(ctx, *d)
			st.attempted++
			if err != nil {
				// The mirror cannot follow a lost delta: stop this worker.
				st.failed++
				return false
			}
			st.record(t0)
			cursor[s]++
			if st.sample == nil {
				st.sample = res
			}
			st.migrations += len(res.Forced) + len(res.Moves)
			served[s] = append(served[s], res.Makespan)
			ratio, err := p.mirrors[s].apply(d, res, sessK)
			if err != nil {
				st.err = fmt.Errorf("session %d delta %d (%s): %w", s, i, d.Op, err)
				return true
			}
			st.ratioSum += ratio
		}
		return true
	})
	st.sent, st.served = cursor, served
	return st
}

// Host noise. On a shared host the hypervisor steals CPU from the
// fleet, and how much it steals changes from minute to minute. The loop
// is therefore cut into windows; at each boundary the benchmark reads
// the host's steal time and the fleet's CPU and memory. Throughput,
// median latency and CPU per operation are each taken per window and
// fitted against the window's steal by least squares; the metric is the
// fit at zero steal, the figure for a window the hypervisor left alone.
// The whole-loop figures are printed beside them in the host record.
const window = 500 * time.Millisecond

// readings are the host's steal ticks and the fleet's CPU and resident
// memory, read at the loop's start and at every window boundary.
type readings struct {
	steal []int64
	cpu   []time.Duration
	rss   []float64
}

// sampleWindows takes readings until stop closes.
func sampleWindows(f *fleet, stop <-chan struct{}) readings {
	var out readings
	read := func() {
		steal, err1 := stealTicks()
		cpu, err2 := f.cpu()
		rss, err3 := f.rss("VmRSS:")
		if err1 == nil && err2 == nil && err3 == nil {
			out.steal, out.cpu, out.rss = append(out.steal, steal), append(out.cpu, cpu), append(out.rss, float64(rss))
		}
	}
	read()
	tick := time.NewTicker(window)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			read()
		case <-stop:
			return out
		}
	}
}

// steady holds the loop's figures fitted to zero steal.
type steady struct {
	windows    int
	throughput float64 // operations per second
	p50        time.Duration
	cpuPerOp   time.Duration
}

// steady fits the per-window figures against per-window steal.
func (s *loopStats) steady() steady {
	n := len(s.steal) - 1
	if n < 2 {
		return steady{}
	}
	lats := make([][]time.Duration, n)
	for j, end := range s.ends {
		if i := int(end / window); i < n {
			lats[i] = append(lats[i], s.lat[j])
		}
	}
	var x, ops, p50, cpu []float64
	for i, l := range lats {
		stolen := float64(s.steal[i+1] - s.steal[i])
		ops = append(ops, float64(len(l))/window.Seconds())
		if len(l) == 0 {
			continue
		}
		x = append(x, stolen)
		p50 = append(p50, float64(percentile(l, 0.5)))
		cpu = append(cpu, float64(s.cpu[i+1]-s.cpu[i])/float64(len(l)))
	}
	all := make([]float64, n)
	for i := range all {
		all[i] = float64(s.steal[i+1] - s.steal[i])
	}
	return steady{
		windows:    n,
		throughput: atZero(all, ops),
		p50:        time.Duration(atZero(x, p50)),
		cpuPerOp:   time.Duration(atZero(x, cpu)),
	}
}

// atZero is the least-squares line through (x, y) evaluated at x = 0;
// the mean of y when x does not vary.
func atZero(x, y []float64) float64 {
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx, my = mx+x[i]/n, my+y[i]/n
	}
	var sxx, sxy float64
	for i := range x {
		sxx += (x[i] - mx) * (x[i] - mx)
		sxy += (x[i] - mx) * (y[i] - my)
	}
	if sxx == 0 {
		return my
	}
	return my - sxy/sxx*mx
}

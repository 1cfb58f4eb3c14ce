package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/session"
)

// The traced run measures layers from outside the program: it times
// its own calls into each layer's public functions and reads what the
// fleet already emits (the answers' timing and cache fields, /metrics
// and /debug/vars). A layer that is not on a workload's path reports 0.

const (
	microSamples = 200 // timed calls per in-process layer measurement
	pairSamples  = 300 // routed/direct round-trip pairs
	kernelSolves = 24  // in-process engine solves
	replayDeltas = 400 // deltas replayed per session
)

// shardReading is one shard's cumulative runtime counters.
type shardReading struct {
	mallocs, pauseNS, allocBytes int64
}

// readShards scrapes every shard's /metrics (allocations and GC pause)
// and /debug/vars (bytes allocated, which /metrics does not export).
func readShards(ctx context.Context, f *fleet) ([]shardReading, error) {
	out := make([]shardReading, len(f.shards))
	for i := range f.shards {
		sc, err := client.New(f.shards[i], nil).Scalars(ctx)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", f.shards[i], err)
		}
		out[i].mallocs, out[i].pauseNS = sc["runtime_mallocs"], sc["runtime_gc_pause_total_ns"]
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.debug[i]+"/debug/vars", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("read %s/debug/vars: %w", f.debug[i], err)
		}
		var vars struct {
			Memstats struct{ TotalAlloc int64 } `json:"memstats"`
		}
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode %s/debug/vars: %w", f.debug[i], err)
		}
		out[i].allocBytes = vars.Memstats.TotalAlloc
	}
	return out, nil
}

// timeEach runs fn n times and returns the median duration of one call.
func timeEach(n int, fn func(i int) error) (time.Duration, error) {
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0)
	}
	return percentile(d, 0.5), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianUS(ns []int64) float64    { return float64(percentile(ns, 0.5)) / 1e3 }
func p99US(ns []int64) float64       { return float64(percentile(ns, 0.99)) / 1e3 }
func perOp(x int64, ops int) float64 { return float64(x) / float64(ops) }

// layers measures every per-layer metric and hands it to put.
func layers(ctx context.Context, p *prepared, st *loopStats, sd steady, before, after []shardReading, put func(name, unit string, v float64)) error {
	ops := st.attempted - st.failed
	var mallocs, pause, alloc int64
	for i := range after {
		mallocs += after[i].mallocs - before[i].mallocs
		pause += after[i].pauseNS - before[i].pauseNS
		alloc += after[i].allocBytes - before[i].allocBytes
	}
	put("shard.allocs_per_op", "count", perOp(mallocs, ops))
	put("shard.alloc_kb_per_op", "KiB", perOp(alloc, ops)/1024)
	put("shard.gc_pause_us_per_op", "us", perOp(pause, ops)/1e3)

	// Every layer starts at 0; the workload's own path overwrites its
	// layers below.
	for name, unit := range map[string]string{
		"router.hop_us": "us", "router.decode_us": "us", "ring.owner_ns": "ns", "server.http_us": "us",
		"client.encode_us": "us", "client.decode_us": "us",
		"cache.canonicalize_us": "us", "cache.probe_us": "us", "cache.hit_ratio": "ratio",
		"dispatch.queue_us": "us", "dispatch.queue_p99_us": "us",
		"engine.solve_us": "us", "engine.solves": "count", "kernel.solve_us": "us",
		"session.apply_us": "us", "session.overhead_us": "us", "session.migrations_per_delta": "count",
	} {
		put(name, unit, 0)
	}
	if p.in.name == "session-churn" {
		return sessionLayerMetrics(ctx, p, st, sd, put)
	}
	return solveLayerMetrics(ctx, p, st, put)
}

// solveLayerMetrics covers the routed solve path: router, ring, HTTP
// adapter, cache, dispatch queue, engine and the client's JSON.
func solveLayerMetrics(ctx context.Context, p *prepared, st *loopStats, put func(name, unit string, v float64)) error {
	ops := st.attempted - st.failed
	// The requests this run served; for miss-budget they are all
	// cached now, so the pairs below compare two hits as well.
	reqs := p.in.hitReqs
	if p.in.name == "miss-budget" {
		reqs = p.in.missReqs[:ops]
	}
	put("cache.probe_us", "us", medianUS(st.cacheNS))
	put("cache.hit_ratio", "ratio", float64(st.hits)/float64(ops))
	put("dispatch.queue_us", "us", medianUS(st.queueNS))
	put("dispatch.queue_p99_us", "us", p99US(st.queueNS))
	put("engine.solve_us", "us", medianUS(st.solveNS))
	put("engine.solves", "count", float64(st.misses))

	// Paired round trips: the same request through the router and then
	// straight to the shard that answered it (order alternating).
	routed := client.New(p.f.routerURL, httpClient(&wire{}))
	direct := map[string]*client.Client{}
	for i, u := range p.f.shards {
		direct[fmt.Sprintf("s%d", i)] = client.New(u, httpClient(&wire{}))
	}
	hops, https := make([]time.Duration, 0, pairSamples), make([]time.Duration, 0, pairSamples)
	for i := 0; i < pairSamples; i++ {
		req := &reqs[i%len(reqs)]
		if p.in.name == "hit-routed" {
			req = &reqs[p.in.hitSeq[i]]
		}
		// An untimed routed call names the owning shard.
		first, err := routed.Solve(ctx, *req)
		if err != nil {
			return fmt.Errorf("paired round trip: %w", err)
		}
		owner, ok := direct[first.ShardID]
		if !ok {
			return fmt.Errorf("paired round trip: answer from unknown shard %q", first.ShardID)
		}
		var rt, dt time.Duration
		var dresp *server.SolveResponse
		for pass := 0; pass < 2; pass++ {
			viaRouter := (pass == 0) == (i%2 == 0)
			c := owner
			if viaRouter {
				c = routed
			}
			t0 := time.Now()
			resp, err := c.Solve(ctx, *req)
			took := time.Since(t0)
			if err == nil {
				_, err = checkSolve(req, resp)
			}
			if err != nil {
				return fmt.Errorf("paired round trip: %w", err)
			}
			if viaRouter {
				rt = took
			} else {
				dt, dresp = took, resp
			}
		}
		hops = append(hops, rt-dt)
		tm := dresp.Timing
		https = append(https, dt-time.Duration(tm.QueueNS+tm.CacheNS+tm.SolveNS))
	}
	put("router.hop_us", "us", us(percentile(hops, 0.5)))
	put("server.http_us", "us", us(percentile(https, 0.5)))

	bodies := make([][]byte, len(reqs))
	d, err := timeEach(microSamples, func(i int) error {
		var err error
		bodies[i%len(reqs)], err = json.Marshal(&reqs[i%len(reqs)])
		return err
	})
	if err != nil {
		return err
	}
	put("client.encode_us", "us", us(d))
	d, err = timeEach(microSamples, func(i int) error {
		var req server.SolveRequest
		if err := json.Unmarshal(bodies[i%len(reqs)], &req); err != nil {
			return err
		}
		return req.Instance.Validate()
	})
	if err != nil {
		return err
	}
	put("router.decode_us", "us", us(d))
	respBody, err := json.Marshal(st.sample)
	if err != nil {
		return err
	}
	d, err = timeEach(microSamples, func(int) error {
		var resp server.SolveResponse
		return json.Unmarshal(respBody, &resp)
	})
	if err != nil {
		return err
	}
	put("client.decode_us", "us", us(d))

	spec, _ := engine.Lookup(reqs[0].Solver)
	points := make([]uint64, min(len(reqs), microSamples))
	d, _ = timeEach(microSamples, func(i int) error {
		r := &reqs[i%len(reqs)]
		points[i%len(points)] = cache.Canonicalize(r.Solver, spec.Caps, &r.Instance, engine.Params{K: r.K, Budget: r.Budget}).Key.Point()
		return nil
	})
	put("cache.canonicalize_us", "us", us(d))
	rg := ring.New(p.f.shards, 0)
	const batch = 1000
	d, _ = timeEach(microSamples, func(int) error {
		for j := 0; j < batch; j++ {
			rg.Owner(points[j%len(points)])
		}
		return nil
	})
	put("ring.owner_ns", "ns", float64(d.Nanoseconds())/batch)
	d, err = timeEach(kernelSolves, func(i int) error {
		r := &reqs[i%len(reqs)]
		_, err := engine.Solve(ctx, r.Solver, &r.Instance.Instance, engine.Params{K: r.K, Budget: r.Budget})
		return err
	})
	if err != nil {
		return err
	}
	put("kernel.solve_us", "us", us(d))
	return nil
}

// sessionLayerMetrics replays each session's delta stream through
// session.Apply in-process, holding every replayed makespan to the one
// the fleet served, and splits the delta round trip into apply time and
// the rest.
func sessionLayerMetrics(ctx context.Context, p *prepared, st *loopStats, sd steady, put func(name, unit string, v float64)) error {
	ops := st.attempted - st.failed
	var applies []time.Duration
	for s := range p.in.sessCreate {
		seed := p.in.sessCreate[s].Instance.Instance.Clone()
		sess, err := session.New(session.Config{Initial: seed, MoveBudget: sessK, AutoRebalance: true})
		if err != nil {
			return err
		}
		for i := 0; i < min(st.sent[s], replayDeltas); i++ {
			wd := &p.in.sessDeltas[s][i]
			d := session.Delta{Job: wd.Job, Size: wd.Size, Cost: wd.Cost}
			d.Op = map[string]session.Op{"arrive": session.OpArrive, "depart": session.OpDepart,
				"resize": session.OpResize, "proc_add": session.OpProcAdd, "proc_drain": session.OpProcDrain}[wd.Op]
			if wd.Proc != nil {
				d.Proc = *wd.Proc
			}
			t0 := time.Now()
			out, err := sess.Apply(ctx, d)
			applies = append(applies, time.Since(t0))
			if err != nil {
				return fmt.Errorf("replay session %d delta %d: %w", s, i, err)
			}
			if out.Makespan != st.served[s][i] {
				return fmt.Errorf("replay session %d delta %d: makespan %d, the fleet served %d", s, i, out.Makespan, st.served[s][i])
			}
		}
	}
	apply := percentile(applies, 0.5)
	put("session.apply_us", "us", us(apply))
	put("session.overhead_us", "us", us(sd.p50-apply))
	put("session.migrations_per_delta", "count", float64(st.migrations)/float64(ops))

	// The client's JSON for a delta and its answer.
	deltas := p.in.sessDeltas[0]
	d, err := timeEach(microSamples, func(i int) error {
		_, err := json.Marshal(&deltas[i%len(deltas)])
		return err
	})
	if err != nil {
		return err
	}
	put("client.encode_us", "us", us(d))
	body, err := json.Marshal(st.sample)
	if err != nil {
		return err
	}
	d, err = timeEach(microSamples, func(int) error {
		var res server.SessionDeltaResult
		return json.Unmarshal(body, &res)
	})
	if err != nil {
		return err
	}
	put("client.decode_us", "us", us(d))
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/core"
	"hydra/internal/engine"
	"hydra/internal/experiments"
	"hydra/internal/jobs"
	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/service"
	"hydra/internal/stats"
	"hydra/internal/syspersist"
	"hydra/internal/taskgen"
	"hydra/internal/tasksetio"
)

// Per-layer metrics of the traced run. Each time is the mean self time of
// one call into the layer; the README maps each to the end-to-end metric
// and workload it should move.
var layerMetrics = []struct{ name, unit string }{
	{"tasksetio.decode_us", "us"},
	{"tasksetio.canonical_us", "us"},
	{"service.key_us", "us"},
	{"service.cache_us", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"partition.rt_us", "us"},
	{"core.hydra_us", "us"},
	{"core.verify_us", "us"},
	{"core.singlecore_us", "us"},
	{"rts.rta_iterations_per_op", "count"},
	{"tasksetio.encode_us", "us"},
	{"service.alloc_bytes_per_op", "bytes"},
	{"service.residue_us", "us"},
	{"online.admit_us", "us"},
	{"online.remove_us", "us"},
	{"syspersist.admit_us", "us"},
	{"syspersist.remove_us", "us"},
	{"syspersist.wal_append_us", "us"},
	{"syspersist.snapshots", "count"},
	{"syspersist.recover_us_per_op", "us"},
	{"taskgen.generate_us", "us"},
	{"engine.busy_share", "ratio"},
	{"jobs.overhead_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
}

// sideOps is the number of admit-and-retire pairs an in-memory system
// replays, and of ops a durable replay off the workload's path runs.
const sideOps = 400

// layerRun is one traced run. The workload's own path is replayed through
// each layer's public functions in handler order into path; layers the
// workload does not reach are replayed on the same seed's inputs into side.
type layerRun struct {
	cfg      *config
	root     string
	untraced window
	traced   window
	http     *tracer // client request and server handler spans
	path     *tracer
	side     *tracer
	until    time.Time // end of the path replay
	// rootsPerOp converts the path's per-root stage means into one
	// end-to-end op: 1 request, or a campaign round's cells per worker.
	rootsPerOp float64
	// unitsPerOp is the work units per end-to-end op that the per-op
	// counts are divided by: 1 request, or a campaign round's cells.
	unitsPerOp        float64
	attempted, failed atomic.Int64
	wal               walObserver
	values            map[string]float64 // layer values measured directly
}

// traceRun measures the workload untraced, then traced, then replays its
// inputs through the layers; each phase gets a third of the window.
func traceRun(ctx context.Context, cfg *config, fx fixture, root string) (*layerRun, error) {
	lr := &layerRun{cfg: cfg, root: root, http: newTracer(), path: newTracer(), side: newTracer(), values: map[string]float64{}}
	phase := cfg.Window / 3
	var err error
	if lr.untraced, err = measure(ctx, fx, phase, nil); err != nil {
		return nil, err
	}
	if lr.traced, err = measure(ctx, fx, phase, lr.http); err != nil {
		return nil, err
	}
	lr.until = time.Now().Add(phase)
	if err := fx.replay(ctx, lr); err != nil {
		return nil, err
	}
	if _, ok := fx.(*serveFixture); !ok {
		in, err := newServeInputs(cfg.Seed, false)
		if err != nil {
			return nil, err
		}
		lr.replayAllocations(in, lr.side, newReplayCache())
	}
	if _, ok := fx.(*durableFixture); !ok {
		docs, err := durableDocs(cfg.Seed)
		if err != nil {
			return nil, err
		}
		if err := lr.replayDurable(docs, lr.side, sideOps, time.Time{}); err != nil {
			return nil, err
		}
	}
	if _, ok := fx.(*campaignFixture); !ok {
		if err := lr.replayCampaign(ctx, lr.side, cfg.ReplayTasksets); err != nil {
			return nil, err
		}
		if err := lr.jobsOverhead(ctx); err != nil {
			return nil, err
		}
	}
	return lr, ctx.Err()
}

// check counts one replayed op and whether its output was right.
func (lr *layerRun) check(ok bool) {
	lr.attempted.Add(1)
	if !ok {
		lr.failed.Add(1)
	}
}

// parallel runs fn on two goroutines and waits for both.
func parallel(fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
}

// replay for serve workloads: set up a fresh cache the way the server
// builds its own, prime it (serve-repeat) with spans in side, then replay
// the workload's requests on two goroutines until the phase ends.
func (fx *serveFixture) replay(ctx context.Context, lr *layerRun) error {
	lr.rootsPerOp, lr.unitsPerOp = 1, 1
	cache := newReplayCache()
	if !fx.unique {
		lr.replayAllocations(&fx.serveInputs, lr.side, cache)
	}
	var counter atomic.Uint64
	parallel(func(g int) {
		var bufs serveBufs
		for i := 0; time.Now().Before(lr.until) && ctx.Err() == nil; i++ {
			n := uint64(g*serveSet/2 + i)
			if fx.unique {
				n = counter.Add(1)
			}
			body, want := fx.request(&bufs, n)
			lr.check(replayAllocate(lr.path, cache, body, want))
		}
	})
	return nil
}

// newReplayCache builds the result cache the way service.New does with the
// workloads' configuration: 1024 entries, GOMAXPROCS-derived stripes.
func newReplayCache() *service.Cache { return service.NewCacheStriped(1024, 0) }

// replayAllocations replays every request of in once on cache, into t.
func (lr *layerRun) replayAllocations(in *serveInputs, t *tracer, cache *service.Cache) {
	for k := range in.bodies {
		lr.check(replayAllocate(t, cache, in.bodies[k], in.want[k]))
	}
}

// replayAllocate runs one POST /v1/allocate through the layers in handler
// order: decode, canonical problem, cache key, cache (whose compute runs
// the RT partition, HYDRA, verification and encoding), and compares the
// answer with want.
func replayAllocate(t *tracer, cache *service.Cache, body, want []byte) bool {
	alloc := core.MustLookup(service.DefaultScheme)
	h, _ := partition.ParseHeuristic("")
	trace := t.newTrace()
	var got []byte
	var err error
	t.span(trace, 0, "request", func(root uint32) {
		var req service.AllocateRequest
		var p, canon *tasksetio.Problem
		var key string
		t.span(trace, root, "tasksetio.decode", func(uint32) {
			if err = jsonStrict(body, &req); err == nil {
				p, err = req.Taskset.ToProblem()
			}
		})
		if err != nil {
			return
		}
		t.span(trace, root, "tasksetio.canonical", func(uint32) { canon = p.Canonical() })
		t.span(trace, root, "service.key", func(uint32) {
			key = service.Key(canon, alloc.Name(), h, stats.DefaultResultsVersion)
		})
		t.span(trace, root, "service.cache", func(id uint32) {
			got, _, err = cache.Do(key, func() ([]byte, error) { return computeTraced(t, trace, id, canon, alloc, h) })
		})
	})
	return err == nil && bytes.Equal(got, want)
}

// computeTraced is the cache-miss computation of the allocate handler.
func computeTraced(t *tracer, trace uint64, parent uint32, canon *tasksetio.Problem, alloc core.Allocator, h partition.Heuristic) ([]byte, error) {
	var in *core.Input
	var res *core.Result
	var err error
	t.span(trace, parent, "partition.rt", func(uint32) { in, err = tasksetio.BuildInput(canon, alloc, h) })
	if err != nil {
		res = &core.Result{Schedulable: false, Scheme: alloc.Name(), Reason: err.Error()}
	} else {
		t.span(trace, parent, "core.hydra", func(uint32) { res = alloc.Allocate(in) })
		if res.Schedulable {
			t.span(trace, parent, "core.verify", func(uint32) { err = core.Verify(in, res) })
			if err != nil {
				return nil, err
			}
		}
	}
	var body []byte
	t.span(trace, parent, "tasksetio.encode", func(uint32) { body, err = encodeIndented(tasksetio.ResultToJSON(canon, res)) })
	return body, err
}

// durableDocs draws the two M=4 systems a durable replay churns on.
func durableDocs(seed int64) ([2]tasksetio.Document, error) {
	var docs [2]tasksetio.Document
	for c := range docs {
		var err error
		if docs[c], err = drawDoc(seed, durableM, durableNR, durableNS, int64(c), ""); err != nil {
			return docs, err
		}
	}
	return docs, nil
}

func (fx *durableFixture) replay(ctx context.Context, lr *layerRun) error {
	lr.rootsPerOp, lr.unitsPerOp = 1, 1
	return lr.replayDurable(fx.docs, lr.path, 0, lr.until)
}

// replayDurable churns the admit-and-retire loop of durable-churn on an
// in-memory online.System per doc (sideOps pairs each, traced into
// lr.side), then, on two goroutines, through a syspersist registry opened
// with the server's options, with each op traced into t in handler order
// (decode, persist, encode), until ops ops or the deadline. It then reopens
// the registry to time recovery.
func (lr *layerRun) replayDurable(docs [2]tasksetio.Document, t *tracer, ops int, until time.Time) error {
	done := func(i int) bool {
		if until.IsZero() {
			return i >= ops
		}
		return !time.Now().Before(until)
	}
	h, _ := partition.ParseHeuristic("")
	task := rts.SecurityTask{Name: churnTask.Name, C: churnTask.WCET, TDes: churnTask.DesiredPeriod, TMax: churnTask.MaxPeriod}
	for c := range docs {
		p, err := docs[c].ToProblem()
		if err != nil {
			return err
		}
		sys, err := online.NewSystem("online", service.DefaultScheme, h, p.M, p.RT, nil, p.Sec)
		if err != nil {
			// Not hostable; the durable fixture would have drawn again.
			continue
		}
		side := lr.side
		for i := 0; i < sideOps; i++ {
			trace := side.newTrace()
			side.span(trace, 0, "request", func(root uint32) {
				side.span(trace, root, "online.admit", func(uint32) { _, err = sys.AddSecurity(task) })
			})
			lr.check(err == nil)
			trace = side.newTrace()
			side.span(trace, 0, "request", func(root uint32) {
				side.span(trace, root, "online.remove", func(uint32) { _, err = sys.Remove(task.Name) })
			})
			lr.check(err == nil)
		}
	}

	dir := filepath.Join(lr.root, "replay-systems")
	opts := syspersist.Options{Dir: dir, Observer: &lr.wal}
	reg, err := syspersist.Open(opts)
	if err != nil {
		return err
	}
	var systems [2]*syspersist.DurableSystem
	for c := range docs {
		p, err := docs[c].ToProblem()
		if err != nil {
			reg.Close()
			return err
		}
		if systems[c], err = reg.Create(fmt.Sprintf("replay-%d", c), service.DefaultScheme, h, p.M, p.RT, nil, p.Sec, 0); err != nil {
			systems[c] = nil
		}
	}
	admitBody, _ := json.Marshal(service.SystemTaskRequest{SecurityTask: &churnTask})
	var logged atomic.Int64
	parallel(func(g int) {
		ds := systems[g]
		if ds == nil {
			return
		}
		for i := 0; !done(i); i++ {
			trace := t.newTrace()
			var err error
			t.span(trace, 0, "request", func(root uint32) {
				if i%2 == 0 {
					var req service.SystemTaskRequest
					t.span(trace, root, "service.decode", func(uint32) { err = jsonStrict(admitBody, &req) })
					if err != nil {
						return
					}
					s := req.SecurityTask
					var pl online.Placement
					t.span(trace, root, "syspersist.admit", func(uint32) {
						pl, err = ds.AddSecurity(rts.SecurityTask{Name: s.Name, C: s.WCET, TDes: s.DesiredPeriod, TMax: s.MaxPeriod, Weight: s.Weight})
					})
					if err != nil {
						return
					}
					t.span(trace, root, "service.encode", func(uint32) {
						_, err = encodeIndented(service.SystemTaskResponse{Admitted: true, Task: s.Name, Kind: string(online.KindSecurity),
							Version: pl.Version, Core: pl.Core, PeriodMS: pl.Period, Tightness: pl.Tightness})
					})
					return
				}
				var rm online.Removed
				t.span(trace, root, "syspersist.remove", func(uint32) { rm, err = ds.Remove(churnTask.Name) })
				if err != nil {
					return
				}
				t.span(trace, root, "service.encode", func(uint32) {
					_, err = encodeIndented(service.SystemRemoveResponse{Removed: true, Task: churnTask.Name, Kind: string(rm.Kind), Core: rm.Core, Version: rm.Version})
				})
			})
			logged.Add(1)
			lr.check(err == nil)
		}
	})
	reg.Close()
	t0 := time.Now()
	reg, err = syspersist.Open(syspersist.Options{Dir: dir})
	recovery := time.Since(t0)
	if err != nil {
		return err
	}
	reg.Close()
	if _, ok := lr.values["syspersist.recover_us_per_op"]; !ok && logged.Load() > 0 {
		lr.values["syspersist.recover_us_per_op"] = micros(recovery) / float64(logged.Load())
	}
	return os.RemoveAll(dir)
}

// walObserver is the syspersist.Observer of the replay registry.
type walObserver struct {
	appends, snapshots atomic.Int64
	appendNS           atomic.Int64
}

func (o *walObserver) ObserveWALAppend(d time.Duration) {
	o.appends.Add(1)
	o.appendNS.Add(d.Nanoseconds())
}
func (o *walObserver) ObserveWALFsync(time.Duration) {}
func (o *walObserver) ObserveSnapshot(time.Duration) { o.snapshots.Add(1) }

func (fx *campaignFixture) replay(ctx context.Context, lr *layerRun) error {
	lr.rootsPerOp = float64(fx.cells) / 2 // a round's cells over its two workers
	lr.unitsPerOp = float64(fx.cells)
	lr.values["jobs.overhead_share"] = 1 - lr.untraced.rate()*float64(fx.cells)/fx.direct
	return lr.replayCampaign(ctx, lr.path, lr.cfg.ReplayTasksets)
}

// fig2Cell is one replayed grid cell outcome.
type fig2Cell struct {
	generated bool
	accepted  [2]bool
}

// replayCampaign runs the fig2 grid of both campaign sizes on
// engine.Run with two workers, tracing each cell's taskset generation, RT
// partition, HYDRA and SingleCore, and checks the acceptance counts against
// experiments.RunFig2Ctx.
func (lr *layerRun) replayCampaign(ctx context.Context, t *tracer, tasksets int) error {
	var busy, wall time.Duration
	for _, m := range campaignMs {
		c := fig2Config(lr.cfg.Seed, m, tasksets)
		hydra := core.NewHydraAllocator(core.HydraOptions{})
		single := core.NewSingleCoreAllocator(c.Heuristic)
		type cell struct {
			k, t int
			util float64
		}
		steps := fig2Levels
		cells := make([]cell, 0, steps*tasksets)
		for k := 1; k <= steps; k++ {
			for i := 0; i < tasksets; i++ {
				cells = append(cells, cell{k, i, 0.025 * float64(k) * float64(m)})
			}
		}
		var busyNS atomic.Int64
		t0 := time.Now()
		out, err := engine.Run(ctx, cells, func(_ context.Context, _ int, rng *rand.Rand, cl cell) (fig2Cell, error) {
			c0 := time.Now()
			defer func() { busyNS.Add(time.Since(c0).Nanoseconds()) }()
			var res fig2Cell
			trace := t.newTrace()
			t.span(trace, 0, "cell", func(root uint32) {
				var w *taskgen.Workload
				var err error
				t.span(trace, root, "taskgen.generate", func(uint32) { w, err = taskgen.Generate(taskgen.DefaultParams(m, cl.util), rng) })
				if err != nil || !necessary(w, m) {
					return
				}
				res.generated = true
				var part *partition.Partition
				t.span(trace, root, "partition.rt", func(uint32) { part, err = partition.PartitionRT(w.RT, m, c.Heuristic) })
				in := &core.Input{M: m, RT: w.RT, RTPartition: make([]int, len(w.RT)), Sec: w.Sec}
				if err == nil {
					if in, err = core.NewInput(m, w.RT, part.CoreOf, w.Sec); err != nil {
						return
					}
					t.span(trace, root, "core.hydra", func(uint32) { res.accepted[0] = hydra.Allocate(in).Schedulable })
				}
				t.span(trace, root, "core.singlecore", func(uint32) { res.accepted[1] = single.Allocate(in).Schedulable })
			})
			return res, nil
		}, engine.Options{
			Workers:        c.Workers,
			Seed:           c.Seed,
			Stream:         func(idx int) int64 { return int64(cells[idx].k)<<32 | int64(cells[idx].t) },
			ResultsVersion: stats.DefaultResultsVersion,
		})
		wall += time.Since(t0) * time.Duration(c.Workers)
		busy += time.Duration(busyNS.Load())
		if err != nil {
			return err
		}
		want, err := experiments.RunFig2Ctx(ctx, c)
		if err != nil {
			return err
		}
		got := make([][2]int, len(want))
		gen := make([]int, len(want))
		for i, r := range out {
			if r.generated {
				gen[i/tasksets]++
				for s, ok := range r.accepted {
					if ok {
						got[i/tasksets][s]++
					}
				}
			}
		}
		for k, pt := range want {
			lr.check(pt.Generated == gen[k] && reflect.DeepEqual(pt.Accepted, []int{got[k][0], got[k][1]}))
		}
	}
	lr.values["engine.busy_share"] = busy.Seconds() / wall.Seconds()
	return nil
}

// necessary is fig2's Eq. 1 filter: the combined workload with security
// tasks at their desired rates.
func necessary(w *taskgen.Workload, m int) bool {
	all := append([]rts.RTTask(nil), w.RT...)
	for _, s := range w.Sec {
		all = append(all, rts.NewRTTask(s.Name, s.C, s.TDes))
	}
	return rts.NecessaryConditionHolds(all, m)
}

// jobsOverhead times one small fig2 campaign through jobs.Manager against
// the direct experiments.RunFig2Ctx call.
func (lr *layerRun) jobsOverhead(ctx context.Context) error {
	c := fig2Config(lr.cfg.Seed, 4, lr.cfg.ReplayTasksets)
	t0 := time.Now()
	if _, err := experiments.RunFig2Ctx(ctx, c); err != nil {
		return err
	}
	direct := time.Since(t0)
	mgr, err := jobs.NewManager(filepath.Join(lr.root, "replay-jobs"), 1)
	if err != nil {
		return err
	}
	defer mgr.Close()
	raw, err := fig2JSON(c)
	if err != nil {
		return err
	}
	t0 = time.Now()
	st, err := mgr.Submit("fig2", raw)
	if err != nil {
		return err
	}
	for !st.State.Terminal() {
		changed, watched := mgr.Watch(st.ID)
		var ok bool
		if st, ok = mgr.Get(st.ID); !ok || !watched {
			return fmt.Errorf("job %s vanished", st.ID)
		}
		if st.State.Terminal() {
			break
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	served := time.Since(t0)
	lr.check(st.State == jobs.StateDone)
	lr.values["jobs.overhead_share"] = 1 - direct.Seconds()/served.Seconds()
	return nil
}

// finish computes the per-layer metrics and prints the reconciliation.
func (lr *layerRun) finish(fx fixture, res *result) {
	path, roots := lr.path.stages()
	side, _ := lr.side.stages()
	perCall := func(name string) float64 {
		for _, m := range []map[string]*stage{path, side} {
			if st := m[name]; st != nil && st.calls > 0 {
				return float64(st.selfNS) / float64(st.calls) / 1e3
			}
		}
		return 0
	}
	u := &lr.untraced
	units := float64(max(u.ops, 1)) * lr.unitsPerOp
	v := lr.values
	for _, name := range []string{"tasksetio.decode", "tasksetio.canonical", "service.key", "service.cache",
		"partition.rt", "core.hydra", "core.verify", "core.singlecore", "tasksetio.encode",
		"online.admit", "online.remove", "syspersist.admit", "syspersist.remove", "taskgen.generate"} {
		v[name+"_us"] = perCall(name)
	}
	if n := u.cacheHits + u.cacheMisses; n > 0 {
		v["service.cache_hit_ratio"] = float64(u.cacheHits) / float64(n)
	} else {
		v["service.cache_hit_ratio"] = 0
	}
	v["rts.rta_iterations_per_op"] = float64(u.rtaIters) / units
	v["service.alloc_bytes_per_op"] = float64(u.allocBytes) / units
	if d, ok := fx.(*durableFixture); ok {
		v["syspersist.wal_append_us"] = u.metricDelta("hydra_wal_append_seconds_sum") * 1e6 / max(u.metricDelta("hydra_wal_append_seconds_count"), 1)
		v["syspersist.snapshots"] = u.metricDelta("hydra_snapshot_write_seconds_count")
		v["syspersist.recover_us_per_op"] = micros(d.recoverPerOp)
	} else {
		v["syspersist.wal_append_us"] = float64(lr.wal.appendNS.Load()) / 1e3 / float64(max(lr.wal.appends.Load(), 1))
		v["syspersist.snapshots"] = float64(lr.wal.snapshots.Load())
	}
	v["bench.trace_overhead_share"] = 1 - lr.traced.rate()/u.rate()

	// Reconciliation: the end-to-end mean latency is the sum of the path's
	// stage means per op plus the residue.
	e2e := micros(u.meanLatency())
	w := lr.cfg.Report
	fmt.Fprintf(w, "reconciliation (%s): end-to-end mean %.2f us over %d ops; path stages per op:\n", lr.cfg.Workload, e2e, u.ops)
	sum := 0.0
	for _, name := range sortedKeys(path) {
		if name == "request" || name == "cell" {
			continue
		}
		st := path[name]
		perOp := float64(st.selfNS) / float64(max(roots, 1)) / 1e3 * lr.rootsPerOp
		sum += perOp
		fmt.Fprintf(w, "  %-24s %12.2f us/op  (%d calls, %.2f us/call)\n", name, perOp, st.calls, float64(st.selfNS)/float64(st.calls)/1e3)
	}
	v["service.residue_us"] = e2e - sum
	fmt.Fprintf(w, "  %-24s %12.2f us/op\n  %-24s %12.2f us/op\n", "residue", e2e-sum, "end-to-end mean", e2e)
	httpStages, _ := lr.http.stages()
	if h := httpStages["handler"]; h != nil && h.calls > 0 {
		fmt.Fprintf(w, "traced window: handler self time %.2f us/call; client-side remainder %.2f us/request\n",
			float64(h.selfNS)/float64(h.calls)/1e3, float64(httpStages["request"].selfNS)/float64(max(httpStages["request"].calls, 1))/1e3)
	}
	fmt.Fprintf(w, "tracing overhead: traced %.2f vs untraced %.2f throughput_rps (share %.4f)\n",
		lr.traced.rate(), u.rate(), v["bench.trace_overhead_share"])
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
}

// maxSpansWritten caps the spans a traced run writes out.
const maxSpansWritten = 20000

// write saves the traced run's spans, as JSON lines, to
// <TraceDir>/<workload>.jsonl, replacing the previous run's file.
func (lr *layerRun) write(cfg *config) error {
	if cfg.TraceDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.TraceDir, cfg.Workload+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := 0
	for _, t := range []*tracer{lr.http, lr.path, lr.side} {
		t.mu.Lock()
		for _, s := range t.spans {
			if n == maxSpansWritten {
				break
			}
			if err == nil {
				err = enc.Encode(s)
			}
			n++
		}
		t.mu.Unlock()
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

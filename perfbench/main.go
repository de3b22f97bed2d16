// Command perfbench is the repository's benchmark. It serves paper-sized
// allocation problems, durable admissions and fig2 campaigns from an
// in-process hydra server over loopback sockets, checks every response, and
// prints one JSON result line. See README.md for the workloads and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve-repeat --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to its set-up function.
var workloads = map[string]func(ctx context.Context, cfg *config, dir string) (fixture, error){
	"serve-repeat":  newServeRepeat,
	"serve-unique":  newServeUnique,
	"durable-churn": newDurableChurn,
	"campaign-fig2": newCampaign,
}

// config is one benchmark run.
type config struct {
	Workload string
	Seed     int64
	Window   time.Duration // measured time; a traced run splits it across its phases
	Trace    bool
	Root     string // directory the run's temp root is created in
	TraceDir string // where the traced run writes its spans; empty skips writing
	// A run sets up at least MinSetups times, and more (up to MaxSetups)
	// until SetupBudget has been spent; setup_s is the median.
	MinSetups, MaxSetups int
	SetupBudget          time.Duration
	// CampaignTasksets is the fig2 tasksets per utilization point (paper: 250).
	CampaignTasksets int
	// ReplayTasksets is the per-point count of the traced run's campaign replay.
	ReplayTasksets int
	Report         io.Writer // human-readable report lines
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// commit is stamped by run.sh when the source is a git checkout.
var commit = "unknown"

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout; the run's temp root lives under <root>/.bench_build")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	build := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := &config{
		Workload:         *workload,
		Seed:             *seed,
		Window:           time.Duration(*seconds * float64(time.Second)),
		Trace:            *trace == 1,
		Root:             build,
		TraceDir:         filepath.Join(build, "traces"),
		MinSetups:        3,
		MaxSetups:        15,
		SetupBudget:      time.Second,
		CampaignTasksets: 250,
		ReplayTasksets:   20,
		Report:           os.Stdout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fixture is one set-up workload: a running server and its generated inputs.
type fixture interface {
	// server returns the in-process server the workload drives.
	server() *server
	// op performs operation i of closed-loop client c and checks the answer;
	// a non-zero trace is sent along so the server's handler span joins it.
	// It returns false when the answer is wrong or refused; err is reserved
	// for the run being cancelled.
	op(ctx context.Context, c, i int, trace uint64) (ok bool, err error)
	// clients is the number of closed-loop clients (at most 2).
	clients() int
	// warmup is how long the untimed closed loop before a window of the
	// given length runs; every client makes at least one op.
	warmup(window time.Duration) time.Duration
	// cellsPerOp is the allocation decisions one op delivers.
	cellsPerOp() float64
	// replay runs the traced layer replay of the workload's own path.
	replay(ctx context.Context, lr *layerRun) error
	// close stops the server and runs the checks that need it stopped,
	// returning the number of failed checks.
	close() (failed int64, err error)
}

// run sets the workload up several times, measures the last set-up, and
// removes everything it created before returning, on every path.
func run(ctx context.Context, cfg *config) (res *result, err error) {
	root, err := os.MkdirTemp(cfg.Root, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(root); rerr != nil && err == nil {
			err = rerr
		}
	}()
	stamp(cfg.Report, root)

	var fx fixture
	closeFx := func() (int64, error) {
		if fx == nil {
			return 0, nil
		}
		f := fx
		fx = nil
		return f.close()
	}
	defer func() { _, _ = closeFx() }()

	var setups []float64
	var setupFailed int64
	var spent float64
	for i := 0; i < cfg.MaxSetups && (i < cfg.MinSetups || spent < cfg.SetupBudget.Seconds()); i++ {
		n, err := closeFx()
		if err != nil {
			return nil, err
		}
		setupFailed += n
		t0 := time.Now()
		fx, err = workloads[cfg.Workload](ctx, cfg, filepath.Join(root, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
		fmt.Fprintf(cfg.Report, "set-up %d: server %s\n", i, fx.server().url)
	}

	// Warm up before timing, so the heap, the caches and the files the
	// workload writes are in their steady state. Its ops are checked and
	// counted like the timed ones.
	warm, err := measure(ctx, fx, fx.warmup(cfg.Window), nil)
	if err != nil {
		return nil, err
	}

	res = &result{Metrics: map[string]metric{}}
	var win window
	if cfg.Trace {
		lr, err := traceRun(ctx, cfg, fx, root)
		if err != nil {
			return nil, err
		}
		win = lr.untraced
		traced := fx
		n, err := closeFx()
		if err != nil {
			return nil, err
		}
		res.Failed = setupFailed + n + lr.untraced.failed + lr.traced.failed + lr.failed.Load()
		res.Attempted = lr.untraced.ops + lr.traced.ops + lr.attempted.Load()
		lr.finish(traced, res)
		if err := lr.write(cfg); err != nil {
			return nil, err
		}
	} else {
		if win, err = measure(ctx, fx, cfg.Window, nil); err != nil {
			return nil, err
		}
		cells := fx.cellsPerOp()
		n, err := closeFx()
		if err != nil {
			return nil, err
		}
		res.Failed = setupFailed + n + win.failed
		res.Attempted = win.ops
		win.endToEnd(res, median(setups), cells, warm.maxRSS)
	}
	res.Attempted += warm.ops
	res.Failed += warm.failed
	res.Correct = res.Failed == 0
	fmt.Fprintf(cfg.Report, "workload %s seed %d: attempted %d failed %d failed_frac %.6f latency samples %d slices %d setup_s samples %v\n",
		cfg.Workload, cfg.Seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), win.ops, len(win.slices), setups)
	fmt.Fprintf(cfg.Report, "  latency_p99_us (median over slices, not a gated metric) %.4f us\n", win.medianOf(func(s slice) float64 { return micros(s.p99) }))
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(cfg.Report, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if ctx.Err() != nil {
		return nil, errors.New("interrupted")
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

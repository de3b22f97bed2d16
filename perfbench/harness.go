package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hydra/internal/rts"
	"hydra/internal/service"
)

// server is an in-process hydra server on a loopback port plus the client
// that drives it. The transport holds at most two connections.
type server struct {
	svc    *service.Server
	http   *http.Server
	url    string
	client *http.Client
	tr     *http.Transport
	served chan error
	tracer tracerRef // non-nil only during a traced window
	once   sync.Once
}

// startServer builds service.New(cfg) and serves its Handler on
// 127.0.0.1:0. The handler wrapper records a "handler" span for requests
// that carry a trace id while a traced window is open.
func startServer(cfg service.Config) (*server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	h := svc.Handler()
	s.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := s.tracer.get()
		id := r.Header.Get(traceHeader)
		if t == nil || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		trace, _ := strconv.ParseUint(id, 10, 64)
		t.span(trace, 1, "handler", func(uint32) { h.ServeHTTP(w, r) })
	})}
	go func() { s.served <- s.http.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr}
	return s, nil
}

// close shuts the listener and every connection, waits for Serve to
// return, then closes the service (jobs, systems). Safe to call twice.
func (s *server) close() {
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.http.Shutdown(ctx); err != nil {
			_ = s.http.Close()
		}
		<-s.served
		s.tr.CloseIdleConnections()
		s.svc.Close()
	})
}

const traceHeader = "X-Perfbench-Trace"

// do sends one request and reads the whole answer into buf.
func (s *server) do(ctx context.Context, method, path string, body []byte, trace uint64, buf *bytes.Buffer) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != 0 {
		req.Header.Set(traceHeader, strconv.FormatUint(trace, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp, err
}

// getBytes fetches path and fails unless the status is 200.
func (s *server) getBytes(ctx context.Context, path string) ([]byte, error) {
	var buf bytes.Buffer
	resp, err := s.do(ctx, http.MethodGet, path, nil, 0, &buf)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// promValue sums the samples of one series name in a /metrics body.
func promValue(body []byte, name string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// window is one measured closed-loop window.
type window struct {
	ops, failed int64
	slices      []slice       // see recorder
	sumLat      time.Duration // over every op
	allocBytes  uint64        // heap allocation over the window
	rtaIters    uint64        // RTA iterations over the window
	cacheHits   uint64
	cacheMisses uint64
	maxRSS      float64   // process peak resident set at the window's end, MB
	metrics     [2][]byte // /metrics before and after
}

// measure drives every client of fx in a closed loop until d has passed:
// each client sends its next op only when the previous one is answered.
// Ops in flight at the deadline complete and count, and every client makes
// at least one op.
func measure(ctx context.Context, fx fixture, d time.Duration, t *tracer) (window, error) {
	var w window
	srv := fx.server()
	before, err := srv.getBytes(ctx, "/metrics")
	if err != nil {
		return w, err
	}
	statsBefore, err := cacheStats(ctx, srv)
	if err != nil {
		return w, err
	}
	srv.tracer.set(t)
	defer srv.tracer.set(nil)
	runtime.GC()
	allocBefore, rtaBefore := heapAllocs(), rts.ReadAnalysisMetrics().Iterations

	n := fx.clients()
	errs := make([]error, n)
	rec := recorder{start: time.Now(), every: max(d/windowSlices, time.Nanosecond)}
	rec.next = rec.every
	deadline := rec.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[c] = fmt.Errorf("client %d panicked: %v", c, r)
				}
			}()
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				t0 := time.Now()
				var ok bool
				var err error
				if t == nil {
					ok, err = fx.op(ctx, c, i, 0)
				} else {
					trace := t.newTrace()
					t.span(trace, 0, "request", func(uint32) { ok, err = fx.op(ctx, c, i, trace) })
				}
				if err != nil {
					errs[c] = err
					return
				}
				rec.add(t0, time.Now(), ok)
			}
		}(c)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return w, ctx.Err()
	}
	if err := errors.Join(errs...); err != nil {
		return w, err
	}
	w.maxRSS = maxRSSMB()
	w.allocBytes = heapAllocs() - allocBefore
	w.rtaIters = rts.ReadAnalysisMetrics().Iterations - rtaBefore
	w.ops, w.failed, w.sumLat, w.slices = rec.ops, rec.failed, rec.sumLat, rec.finish()
	statsAfter, err := cacheStats(ctx, srv)
	if err != nil {
		return w, err
	}
	w.cacheHits = statsAfter.Hits - statsBefore.Hits
	w.cacheMisses = statsAfter.Misses - statsBefore.Misses
	after, err := srv.getBytes(ctx, "/metrics")
	w.metrics = [2][]byte{before, after}
	return w, err
}

func cacheStats(ctx context.Context, srv *server) (service.CacheStats, error) {
	body, err := srv.getBytes(ctx, "/v1/stats")
	if err != nil {
		return service.CacheStats{}, err
	}
	var st service.StatsResponse
	if err := jsonStrict(body, &st); err != nil {
		return service.CacheStats{}, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return st.Cache, nil
}

// windowSlices is how many slices a window is cut into. Throughput and
// latency percentiles are the median over the slices, so interference from
// outside the process that hits a few slices does not move them.
const windowSlices = 20

// slice summarizes the ops that completed in one slice of a window.
type slice struct {
	rate          float64 // correct ops per second
	p50, p90, p99 time.Duration
}

// recorder cuts a window into slices as ops complete. A slice closes at the
// first completion at or after its boundary (every window/windowSlices),
// so it always holds at least one op, however long ops take. Only the open
// slice's latencies are kept, so memory does not grow with the op count.
type recorder struct {
	start       time.Time
	every       time.Duration
	mu          sync.Mutex
	next        time.Duration // boundary of the open slice, since start
	from        time.Duration // when the open slice began
	lat         []time.Duration
	good        int
	ops, failed int64
	sumLat      time.Duration
	slices      []slice
}

func (r *recorder) add(t0, end time.Time, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lat := end.Sub(t0)
	r.ops++
	r.sumLat += lat
	r.lat = append(r.lat, lat)
	if ok {
		r.good++
	} else {
		r.failed++
	}
	if at := end.Sub(r.start); at >= r.next {
		r.close(at)
		r.next = (at/r.every + 1) * r.every
	}
}

func (r *recorder) close(at time.Duration) {
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	r.slices = append(r.slices, slice{
		rate: float64(r.good) / (at - r.from).Seconds(),
		p50:  quantile(r.lat, 0.50),
		p90:  quantile(r.lat, 0.90),
		p99:  quantile(r.lat, 0.99),
	})
	r.from, r.lat, r.good = at, r.lat[:0], 0
}

// finish returns the closed slices. Ops completing after the last boundary
// (those in flight at the deadline) form a short tail slice, which counts
// only when no other slice exists.
func (r *recorder) finish() []slice {
	if len(r.slices) == 0 && len(r.lat) > 0 {
		r.close(r.from + r.every)
	}
	return r.slices
}

// rate is the median over slices of correct ops per second.
func (w *window) rate() float64 {
	return w.medianOf(func(s slice) float64 { return s.rate })
}

func (w *window) medianOf(f func(slice) float64) float64 {
	v := make([]float64, len(w.slices))
	for i, s := range w.slices {
		v[i] = f(s)
	}
	return median(v)
}

// meanLatency is the mean latency over every op of the window.
func (w *window) meanLatency() time.Duration {
	if w.ops == 0 {
		return 0
	}
	return w.sumLat / time.Duration(w.ops)
}

// metricDelta is the change of a /metrics series over the window.
func (w *window) metricDelta(name string) float64 {
	return promValue(w.metrics[1], name) - promValue(w.metrics[0], name)
}

// endToEnd fills the end-to-end metrics of an untraced run. rss is the peak
// resident set after set-up and warm-up: taken before the timed window, it
// does not grow with the ops a faster program completes in the window (the
// jobs manager keeps every finished campaign).
func (w *window) endToEnd(res *result, setup, cellsPerOp, rss float64) {
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["throughput_rps"] = metric{w.rate(), "1/s"}
	res.Metrics["latency_p50_us"] = metric{w.medianOf(func(s slice) float64 { return micros(s.p50) }), "us"}
	res.Metrics["latency_p90_us"] = metric{w.medianOf(func(s slice) float64 { return micros(s.p90) }), "us"}
	res.Metrics["cells_per_s"] = metric{w.rate() * cellsPerOp, "1/s"}
	res.Metrics["max_rss_mb"] = metric{rss, "MB"}
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stamp prints the machine the numbers were measured on.
func stamp(w io.Writer, dir string) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(w, "machine: cpu=%q nproc=%d gomaxprocs=%d go=%s fs=%s commit=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir), commit)
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x01021997: "9p", 0x65735546: "fuse", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// testConfig is a short run of workload with small inputs, its files under a
// fresh temp root.
func testConfig(t *testing.T, workload string, trace bool, report *bytes.Buffer) *config {
	t.Helper()
	root := filepath.Join(t.TempDir(), "root")
	if err := os.Mkdir(root, 0o755); err != nil {
		t.Fatal(err)
	}
	return &config{
		Workload: workload, Seed: 7, Window: 600 * time.Millisecond, Trace: trace, Root: root,
		MinSetups: 2, MaxSetups: 2, CampaignTasksets: 3, ReplayTasksets: 2, Report: report,
	}
}

var serverLine = regexp.MustCompile(`server http://(127\.0\.0\.1:\d+)`)

// assertClean checks that a finished run left no listener, goroutine or
// file behind.
func assertClean(t *testing.T, cfg *config, report []byte, goroutines int) {
	t.Helper()
	addrs := serverLine.FindAllSubmatch(report, -1)
	if len(addrs) == 0 {
		t.Fatalf("report names no server:\n%s", report)
	}
	for _, m := range addrs {
		if c, err := net.DialTimeout("tcp", string(m[1]), time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections", m[1])
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left, started with %d:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
	left, err := os.ReadDir(cfg.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp root not empty: %v", left)
	}
}

func TestWorkloadsRunCleanAndCorrect(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				var report bytes.Buffer
				cfg := testConfig(t, name, trace, &report)
				goroutines := runtime.NumGoroutine()
				start := time.Now()
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, report.Bytes())
				}
				if took := time.Since(start); took > time.Minute {
					t.Errorf("run took %v", took)
				}
				if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
					t.Errorf("attempted %d failed %d correct %v\n%s", res.Attempted, res.Failed, res.Correct, report.Bytes())
				}
				want := []string{"setup_s", "throughput_rps", "latency_p50_us", "latency_p90_us", "cells_per_s", "max_rss_mb"}
				if trace {
					want = want[:0]
					for _, m := range layerMetrics {
						want = append(want, m.name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("metrics %v, want %v", sortedKeys(res.Metrics), want)
				}
				for _, m := range want {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
				assertClean(t, cfg, report.Bytes(), goroutines)
			})
		}
	}
}

// A cancelled run (what SIGINT and SIGTERM do) returns an error, prints no
// result, and still cleans up.
func TestInterruptedRunCleansUp(t *testing.T) {
	for _, name := range []string{"serve-unique", "durable-churn"} {
		t.Run(name, func(t *testing.T) {
			var report bytes.Buffer
			cfg := testConfig(t, name, false, &report)
			cfg.Window = time.Minute
			goroutines := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			start := time.Now()
			if _, err := run(ctx, cfg); err == nil {
				t.Fatal("interrupted run reported success")
			}
			if took := time.Since(start); took > 20*time.Second {
				t.Errorf("interrupted run took %v to return", took)
			}
			assertClean(t, cfg, report.Bytes(), goroutines)
		})
	}
}

// A response that differs from the reference by one byte counts as failed.
func TestCorruptedResponseCountsAsFailed(t *testing.T) {
	var report bytes.Buffer
	cfg := testConfig(t, "serve-repeat", false, &report)
	fx, err := newServe(context.Background(), cfg, cfg.Root, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	ok, err := fx.op(context.Background(), 0, 0, 0)
	if err != nil || !ok {
		t.Fatalf("intact answer: ok %v err %v", ok, err)
	}
	// Corrupt what the server answers for taskset 0 as seen by the checker.
	fx.want[0] = append([]byte(nil), fx.want[0]...)
	fx.want[0][len(fx.want[0])/2] ^= 1
	if ok, err := fx.op(context.Background(), 0, 0, 0); err != nil || ok {
		t.Fatalf("corrupted answer: ok %v err %v", ok, err)
	}
	w, err := measure(context.Background(), fx, 200*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.failed == 0 || w.failed == w.ops {
		t.Errorf("failed %d of %d ops; want only taskset 0's to fail", w.failed, w.ops)
	}
	if !allocateAnswerOK(200, "HIT", fx.want[1], fx.want[1], "HIT") || allocateAnswerOK(200, "MISS", fx.want[1], fx.want[1], "HIT") {
		t.Error("X-Cache outcome not checked")
	}
}

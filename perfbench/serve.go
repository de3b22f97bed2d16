package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"hydra/internal/service"
)

const (
	// serveSet is the number of distinct tasksets a serve workload cycles
	// through, half at M=4 and half at M=8.
	serveSet = 64
	// uniqueTag prefixes every task name of a serve-unique body. Its ten
	// digits are overwritten with the request counter, so every request is
	// a new problem whose analysis equals the base taskset's: a shared
	// prefix keeps the canonical (name-sorted) task order.
	uniqueTag = "u0000000000-"
)

// serveInputs are a serve workload's request bodies and expected answers.
type serveInputs struct {
	unique  bool
	bodies  [][]byte // request bodies; serve-unique bodies carry uniqueTag
	want    [][]byte // expected response bodies
	bodyTag [][]int  // serve-unique: offsets of the tag digits in bodies
	wantTag [][]int  // serve-unique: offsets of the tag digits in want
}

func newServeInputs(seed int64, unique bool) (*serveInputs, error) {
	prefix := ""
	if unique {
		prefix = uniqueTag
	}
	docs, err := workingSet(seed, serveSet, prefix)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{unique: unique}
	for i := range docs {
		body, err := json.Marshal(service.AllocateRequest{Taskset: docs[i]})
		if err != nil {
			return nil, err
		}
		want, err := referenceAllocation(&docs[i])
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.want = append(in.want, want)
		if unique {
			in.bodyTag = append(in.bodyTag, tagOffsets(body))
			in.wantTag = append(in.wantTag, tagOffsets(want))
		}
	}
	return in, nil
}

// request returns the body and expected answer of the request with
// counter n.
func (in *serveInputs) request(bufs *serveBufs, n uint64) (body, want []byte) {
	k := int(n % serveSet)
	if !in.unique {
		return in.bodies[k], in.want[k]
	}
	return splice(&bufs.body, in.bodies[k], in.bodyTag[k], n), splice(&bufs.want, in.want[k], in.wantTag[k], n)
}

// serveFixture drives POST /v1/allocate with two closed-loop clients.
type serveFixture struct {
	serveInputs
	srv     *server
	counter atomic.Uint64
	bufs    [2]serveBufs
	failed  int64 // failed set-up checks
}

// serveBufs is one client's reusable buffers.
type serveBufs struct{ resp, body, want bytes.Buffer }

func newServeRepeat(ctx context.Context, cfg *config, dir string) (fixture, error) {
	return newServe(ctx, cfg, dir, false)
}

func newServeUnique(ctx context.Context, cfg *config, dir string) (fixture, error) {
	return newServe(ctx, cfg, dir, true)
}

func newServe(ctx context.Context, cfg *config, dir string, unique bool) (*serveFixture, error) {
	in, err := newServeInputs(cfg.Seed, unique)
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{serveInputs: *in}
	if fx.srv, err = startServer(serverConfig(dir)); err != nil {
		return nil, err
	}
	if !unique {
		// Prime the cache: every timed request is then a byte-identical hit.
		for k := range fx.bodies {
			ok, err := fx.check(ctx, 0, fx.bodies[k], fx.want[k], "MISS", 0)
			if err != nil {
				fx.srv.close()
				return nil, err
			}
			if !ok {
				fx.failed++
			}
		}
	}
	return fx, nil
}

// serverConfig is the server configuration every workload uses: defaults,
// with the jobs and systems directories inside the run's temp root.
func serverConfig(dir string) service.Config {
	return service.Config{JobsDir: filepath.Join(dir, "jobs"), SystemsDir: filepath.Join(dir, "systems")}
}

// tagOffsets returns where the digits of uniqueTag sit in b.
func tagOffsets(b []byte) []int {
	var out []int
	tag := []byte(uniqueTag)
	for i := 0; ; {
		j := bytes.Index(b[i:], tag)
		if j < 0 {
			return out
		}
		out = append(out, i+j+1)
		i += j + len(tag)
	}
}

// splice copies src into dst with every tagged digit run replaced by n.
func splice(dst *bytes.Buffer, src []byte, offsets []int, n uint64) []byte {
	dst.Reset()
	dst.Write(src)
	b := dst.Bytes()
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	for _, off := range offsets {
		field := b[off : off+len(uniqueTag)-2]
		for i := range field {
			field[i] = '0'
		}
		copy(field[len(field)-len(d):], d)
	}
	return b
}

func (fx *serveFixture) server() *server     { return fx.srv }
func (fx *serveFixture) clients() int        { return 2 }
func (fx *serveFixture) cellsPerOp() float64 { return 1 }

func (fx *serveFixture) warmup(window time.Duration) time.Duration { return steadyWarmup(window) }

// steadyWarmup is the warm-up of the workloads whose ops take well under a
// millisecond: a tenth of the window, at most two seconds.
func steadyWarmup(window time.Duration) time.Duration { return min(window/10, 2*time.Second) }

func (fx *serveFixture) op(ctx context.Context, c, i int, trace uint64) (bool, error) {
	bufs := &fx.bufs[c]
	n := uint64(c*serveSet/2 + i)
	outcome := "HIT"
	if fx.unique {
		n, outcome = fx.counter.Add(1), "MISS"
	}
	body, want := fx.request(bufs, n)
	return fx.check(ctx, c, body, want, outcome, trace)
}

// check sends one allocate request and compares status, X-Cache and the
// body bytes with the expected answer.
func (fx *serveFixture) check(ctx context.Context, c int, body, want []byte, outcome string, trace uint64) (bool, error) {
	resp, err := fx.srv.do(ctx, http.MethodPost, "/v1/allocate", body, trace, &fx.bufs[c].resp)
	if err != nil {
		return false, ctx.Err()
	}
	return allocateAnswerOK(resp.StatusCode, resp.Header.Get("X-Cache"), fx.bufs[c].resp.Bytes(), want, outcome), nil
}

// allocateAnswerOK is the serve workloads' output check.
func allocateAnswerOK(status int, xcache string, got, want []byte, outcome string) bool {
	return status == http.StatusOK && xcache == outcome && bytes.Equal(got, want)
}

func (fx *serveFixture) close() (int64, error) {
	fx.srv.close()
	return fx.failed, nil
}

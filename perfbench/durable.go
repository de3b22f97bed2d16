package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hydra/internal/online"
	"hydra/internal/service"
	"hydra/internal/syspersist"
	"hydra/internal/tasksetio"
)

// durableM, durableNR and durableNS size the durable-churn systems: M=4 at
// the middle of the paper's task-count ranges, so the admission work does
// not depend on the seed.
const durableM, durableNR, durableNS = 4, 26, 14

// churnTask is the security task each durable-churn client admits and
// retires: light enough (0.1% utilization, 10x period slack) to fit every
// system the set-up accepts.
var churnTask = tasksetio.SecurityTaskJSON{Name: "churn", WCET: 1, DesiredPeriod: 1000, MaxPeriod: 10000}

// durableFixture owns two paper-sized M=4 systems on an on-disk systems
// directory; client c admits and retires churnTask on system c.
type durableFixture struct {
	srv      *server
	dir      string
	docs     [2]tasksetio.Document
	ids      [2]string
	created  [2]uint64 // version at creation
	version  [2]uint64 // last version acknowledged
	ops      [2]int64  // admits and retires sent
	admitted [2]bool
	admit    []byte
	bufs     [2]bytes.Buffer
	// recoverPerOp is syspersist.Open over the closed server's directory,
	// divided by the ops it logged (set by close).
	recoverPerOp time.Duration
}

func newDurableChurn(ctx context.Context, cfg *config, dir string) (fixture, error) {
	scfg := serverConfig(dir)
	srv, err := startServer(scfg)
	if err != nil {
		return nil, err
	}
	fx := &durableFixture{srv: srv, dir: scfg.SystemsDir}
	if fx.admit, err = json.Marshal(service.SystemTaskRequest{SecurityTask: &churnTask}); err != nil {
		srv.close()
		return nil, err
	}
	draw := int64(0)
	for c := range fx.ids {
		if err := fx.createSystem(ctx, cfg.Seed, c, &draw); err != nil {
			srv.close()
			return nil, err
		}
	}
	return fx, nil
}

// createSystem creates system c from the seed's next M=4 draw on which the
// churn task can be admitted and retired, probing once.
func (fx *durableFixture) createSystem(ctx context.Context, seed int64, c int, draw *int64) error {
	id := fmt.Sprintf("churn-%d", c)
	for tries := 0; tries < 32; tries++ {
		doc, err := drawDoc(seed, durableM, durableNR, durableNS, *draw, "")
		*draw++
		if err != nil {
			return err
		}
		body, err := json.Marshal(service.SystemCreateRequest{ID: id, Taskset: doc})
		if err != nil {
			return err
		}
		resp, err := fx.srv.do(ctx, http.MethodPost, "/v1/systems", body, 0, &fx.bufs[c])
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusCreated {
			continue // HYDRA cannot host this draw
		}
		var sys service.SystemJSON
		if err := jsonStrict(fx.bufs[c].Bytes(), &sys); err != nil {
			return fmt.Errorf("decode created system: %w", err)
		}
		fx.ids[c], fx.docs[c], fx.created[c], fx.version[c] = id, doc, sys.Version, sys.Version
		ok, err := fx.op(ctx, c, 0, 0)
		if err != nil {
			return err
		}
		if ok && fx.admitted[c] {
			if ok, err = fx.op(ctx, c, 1, 0); err != nil || ok {
				return err
			}
		}
		// The churn task does not fit this draw: drop the system, try the next.
		fx.ops[c], fx.admitted[c] = 0, false
		if _, err := fx.srv.do(ctx, http.MethodDelete, "/v1/systems/"+id, nil, 0, &fx.bufs[c]); err != nil {
			return err
		}
	}
	return fmt.Errorf("no M=4 draw of seed %d hosts the churn task", seed)
}

func (fx *durableFixture) server() *server     { return fx.srv }
func (fx *durableFixture) clients() int        { return 2 }
func (fx *durableFixture) cellsPerOp() float64 { return 0.5 } // an admit decides; a retire does not

func (fx *durableFixture) warmup(window time.Duration) time.Duration { return steadyWarmup(window) }

// op admits the churn task on client c's system, or retires it when it is
// admitted, and checks the acknowledgement and the version step.
func (fx *durableFixture) op(ctx context.Context, c, _ int, trace uint64) (bool, error) {
	path := "/v1/systems/" + fx.ids[c] + "/tasks"
	method, body := http.MethodPost, fx.admit
	if fx.admitted[c] {
		method, path, body = http.MethodDelete, path+"/"+churnTask.Name, nil
	}
	resp, err := fx.srv.do(ctx, method, path, body, trace, &fx.bufs[c])
	if err != nil {
		return false, ctx.Err()
	}
	fx.ops[c]++
	var ack struct {
		service.SystemTaskResponse
		Removed bool `json:"removed"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(fx.bufs[c].Bytes(), &ack) != nil || ack.Task != churnTask.Name {
		return false, nil
	}
	ok := ack.Version == fx.version[c]+1 && ack.Admitted != fx.admitted[c] && ack.Removed == fx.admitted[c]
	fx.version[c] = ack.Version
	if ok {
		fx.admitted[c] = !fx.admitted[c]
	}
	return ok, nil
}

// close stops the server, then checks that each system's final version is
// its creation version plus the ops sent, and that syspersist.Open recovers
// exactly the live state.
func (fx *durableFixture) close() (int64, error) {
	var failed int64
	var live [2][]byte
	for c, id := range fx.ids {
		body, err := fx.srv.getBytes(context.Background(), "/v1/systems/"+id)
		if err != nil {
			fx.srv.close()
			return failed, err
		}
		var sys service.SystemJSON
		if err := jsonStrict(body, &sys); err != nil || sys.Version != fx.created[c]+uint64(fx.ops[c]) {
			failed++
		}
		live[c] = body
	}
	fx.srv.close()

	t0 := time.Now()
	reg, err := syspersist.Open(syspersist.Options{Dir: fx.dir})
	openTime := time.Since(t0)
	if err != nil {
		return failed, fmt.Errorf("recover systems: %w", err)
	}
	defer reg.Close()
	fx.recoverPerOp = openTime / time.Duration(max(fx.ops[0]+fx.ops[1], 1))
	for c, id := range fx.ids {
		ds, ok := reg.Get(id)
		if !ok {
			failed++
			continue
		}
		got, err := encodeIndented(systemJSON(ds.Snapshot()))
		if err != nil || !bytes.Equal(got, live[c]) {
			failed++
		}
	}
	return failed, nil
}

// systemJSON renders a recovered snapshot in the GET /v1/systems/{id} shape.
func systemJSON(snap online.Snapshot) service.SystemJSON {
	out := service.SystemJSON{
		ID: snap.ID, Scheme: snap.Scheme, Heuristic: snap.Heuristic.String(), Cores: snap.M,
		Version: snap.Version, RTTasks: []service.SystemRTTaskJSON{}, SecurityTasks: []service.SystemSecTaskJSON{},
		CumulativeTightness: snap.Cumulative,
	}
	for _, p := range snap.RT {
		j := service.SystemRTTaskJSON{Name: p.Task.Name, WCET: p.Task.C, Period: p.Task.T, Core: p.Core}
		if p.Task.D != p.Task.T {
			j.Deadline = p.Task.D
		}
		out.RTTasks = append(out.RTTasks, j)
	}
	for _, p := range snap.Sec {
		out.SecurityTasks = append(out.SecurityTasks, service.SystemSecTaskJSON{
			Name: p.Task.Name, WCET: p.Task.C, DesiredPeriod: p.Task.TDes, MaxPeriod: p.Task.TMax,
			Weight: p.Task.Weight, Core: p.Core, PeriodMS: p.Period, Tightness: p.Tightness(),
		})
	}
	return out
}

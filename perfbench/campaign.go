package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hydra/internal/experiments"
	"hydra/internal/jobs"
	"hydra/internal/service"
	"hydra/internal/stats"
)

// campaignMs are the platform sizes of one campaign round, run back to back.
var campaignMs = [2]int{4, 8}

// campaignPoll is how often a client polls a running campaign's status.
const campaignPoll = 5 * time.Millisecond

// campaignFixture submits fig2 campaigns through POST /v1/experiments on an
// on-disk jobs directory and checks each result against a direct
// experiments.RunFig2Ctx reference computed in set-up. One op is a round:
// the M=4 campaign, then the M=8 campaign.
type campaignFixture struct {
	srv    *server
	submit [2][]byte
	want   [2][]byte // reference result documents
	cells  int       // grid cells per round
	// direct is the cells per second of the reference runs, for
	// jobs.overhead_share.
	direct float64
	buf    bytes.Buffer
}

// fig2Config is the campaign at m cores for the workload seed.
func fig2Config(seed int64, m, tasksets int) experiments.Fig2Config {
	return experiments.Fig2Config{M: m, TasksetsPerPoint: tasksets, Seed: seed<<8 | int64(m), Workers: 2}
}

// fig2Levels is the utilization levels of a fig2 campaign: 0.025·M to
// 0.975·M in steps of 0.025·M.
const fig2Levels = 39

// fig2Cells is the grid size of one fig2 campaign.
func fig2Cells(tasksets int) int { return fig2Levels * tasksets }

// fig2JSON is c as a "fig2" campaign config document.
func fig2JSON(c experiments.Fig2Config) (json.RawMessage, error) {
	return json.Marshal(map[string]any{
		"M": c.M, "TasksetsPerPoint": c.TasksetsPerPoint, "Seed": c.Seed, "Workers": c.Workers,
	})
}

// submitBody is the POST /v1/experiments body running c.
func submitBody(c experiments.Fig2Config) ([]byte, error) {
	raw, err := fig2JSON(c)
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.ExperimentRequest{Experiment: "fig2", Config: raw})
}

func newCampaign(ctx context.Context, cfg *config, dir string) (fixture, error) {
	fx := &campaignFixture{}
	var directTime time.Duration
	for i, m := range campaignMs {
		c := fig2Config(cfg.Seed, m, cfg.CampaignTasksets)
		t0 := time.Now()
		pts, err := experiments.RunFig2Ctx(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("reference fig2 M=%d: %w", m, err)
		}
		directTime += time.Since(t0)
		want, err := json.MarshalIndent(experiments.Fig2Result{ResultsVersion: int(stats.DefaultResultsVersion), Points: pts}, "", "  ")
		if err != nil {
			return nil, err
		}
		body, err := submitBody(c)
		if err != nil {
			return nil, err
		}
		fx.want[i], fx.submit[i] = append(want, '\n'), body
		fx.cells += fig2Cells(cfg.CampaignTasksets)
	}
	fx.direct = float64(fx.cells) / directTime.Seconds()
	var err error
	if fx.srv, err = startServer(serverConfig(dir)); err != nil {
		return nil, err
	}
	return fx, nil
}

func (fx *campaignFixture) server() *server     { return fx.srv }
func (fx *campaignFixture) clients() int        { return 1 }
func (fx *campaignFixture) cellsPerOp() float64 { return float64(fx.cells) }

// warmup is one round, however fast rounds are, so max_rss_mb does not
// depend on how many finished campaigns the jobs manager holds.
func (fx *campaignFixture) warmup(time.Duration) time.Duration { return 0 }

// op runs one round: each campaign is submitted, awaited and its result
// compared byte for byte with the reference.
func (fx *campaignFixture) op(ctx context.Context, _, _ int, trace uint64) (bool, error) {
	ok := true
	for i := range fx.submit {
		good, err := fx.campaign(ctx, fx.submit[i], fx.want[i], trace)
		if err != nil {
			return false, err
		}
		ok = ok && good
	}
	return ok, nil
}

func (fx *campaignFixture) campaign(ctx context.Context, submit, want []byte, trace uint64) (bool, error) {
	resp, err := fx.srv.do(ctx, http.MethodPost, "/v1/experiments", submit, trace, &fx.buf)
	if err != nil {
		return false, ctx.Err()
	}
	var st jobs.Status
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(fx.buf.Bytes(), &st) != nil {
		return false, nil
	}
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(campaignPoll):
		}
		resp, err := fx.srv.do(ctx, http.MethodGet, "/v1/experiments/"+st.ID, nil, trace, &fx.buf)
		if err != nil {
			return false, ctx.Err()
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(fx.buf.Bytes(), &st) != nil {
			return false, nil
		}
	}
	resp, err = fx.srv.do(ctx, http.MethodGet, "/v1/experiments/"+st.ID+"/result", nil, trace, &fx.buf)
	if err != nil {
		return false, ctx.Err()
	}
	return resp.StatusCode == http.StatusOK && bytes.Equal(fx.buf.Bytes(), want), nil
}

func (fx *campaignFixture) close() (int64, error) {
	fx.srv.close()
	return 0, nil
}

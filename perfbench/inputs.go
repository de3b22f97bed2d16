package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hydra/internal/core"
	"hydra/internal/partition"
	"hydra/internal/service"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
	"hydra/internal/tasksetio"
)

// drawDoc generates taskset number n of the seed's stream at m cores with
// the paper's parameters (Sec. IV-B) at total utilization 0.5·m, with nr
// real-time and ns security tasks. Every task name gets prefix.
func drawDoc(seed int64, m, nr, ns int, n int64, prefix string) (tasksetio.Document, error) {
	p := taskgen.DefaultParams(m, 0.5*float64(m))
	p.NR, p.NS = nr, ns
	w, err := taskgen.GenerateAt(p, stats.RNGv2, seed, int64(m), n)
	if err != nil {
		return tasksetio.Document{}, fmt.Errorf("generate M=%d draw %d: %w", m, n, err)
	}
	doc := tasksetio.Document{Cores: m, RTTasks: []tasksetio.RTTaskJSON{}, SecurityTasks: []tasksetio.SecurityTaskJSON{}}
	for _, t := range w.RT {
		doc.RTTasks = append(doc.RTTasks, tasksetio.RTTaskJSON{Name: prefix + t.Name, WCET: t.C, Period: t.T})
	}
	for _, s := range w.Sec {
		doc.SecurityTasks = append(doc.SecurityTasks, tasksetio.SecurityTaskJSON{
			Name: prefix + s.Name, WCET: s.C, DesiredPeriod: s.TDes, MaxPeriod: s.TMax,
		})
	}
	return doc, nil
}

// workingSet draws n tasksets, alternating M=4 and M=8. The task counts
// are stratified rather than drawn: the k-th of the h tasksets at one M has
// NR evenly spaced over the paper's [3M, 10M] and NS over [2M, 5M] (in a
// shuffled order), so a set's total size, and with it the work per request,
// does not depend on the seed. The seed still draws every utilization and
// period.
func workingSet(seed int64, n int, prefix string) ([]tasksetio.Document, error) {
	docs := make([]tasksetio.Document, n)
	h := n / 2
	for i := range docs {
		m, k := 4<<(i%2), i/2
		nr := 3*m + (k*7*m+(h-1)/2)/(h-1)
		ns := 2*m + ((k*13%h)*3*m+(h-1)/2)/(h-1)
		var err error
		if docs[i], err = drawDoc(seed, m, nr, ns, int64(k), prefix); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// referenceAllocation computes the /v1/allocate answer for doc under the
// default scheme and heuristic straight from the library: canonical
// problem, RT partition, HYDRA, verification, and the service's encoding
// (two-space indent, trailing newline).
func referenceAllocation(doc *tasksetio.Document) ([]byte, error) {
	p, err := doc.ToProblem()
	if err != nil {
		return nil, err
	}
	canon := p.Canonical()
	alloc := core.MustLookup(service.DefaultScheme)
	h, err := partition.ParseHeuristic("")
	if err != nil {
		return nil, err
	}
	var res *core.Result
	in, err := tasksetio.BuildInput(canon, alloc, h)
	if err != nil {
		res = &core.Result{Schedulable: false, Scheme: alloc.Name(), Reason: err.Error()}
	} else {
		res = alloc.Allocate(in)
		if res.Schedulable {
			if err := core.Verify(in, res); err != nil {
				return nil, fmt.Errorf("reference allocation fails verification: %w", err)
			}
		}
	}
	return encodeIndented(tasksetio.ResultToJSON(canon, res))
}

// encodeIndented renders v the way the service writes response bodies.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jsonStrict decodes one JSON document, rejecting unknown fields.
func jsonStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

package main

// The exact-proofs and paper-matrix workloads: one caller, one-shot
// syntheses with no cache, one job at a time.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"flowsyn/internal/assay"
	"flowsyn/internal/core"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
	"flowsyn/internal/storage"
)

// strategies are the three storage strategies every workload covers.
var strategies = []storage.Config{
	{Policy: storage.Distributed},
	{Policy: storage.Dedicated},
	{Policy: storage.Hybrid, CacheSlots: 2, Eviction: storage.LRU},
}

// exactTimeLimit caps each exact solve; one that stops there has failed.
const exactTimeLimit = 10 * time.Second

// exactRandom lists the random assays of exact-proofs as (ops, seed) pairs
// of assay.Random with width 3, scheduled on 2 devices. Every one of them
// proves under every strategy within a second; 9-op assays and the 7- and
// 8-op seeds that take longer are left out (see README.md). With PCR and
// IVD the set makes 17 assays, 51 jobs a round; a 30 s run holds about
// seven rounds.
var exactRandom = [][2]int{
	{6, 1}, {6, 2}, {6, 3}, {6, 4}, {6, 5}, {6, 6}, {6, 7}, {6, 8},
	{7, 1}, {7, 2}, {7, 3}, {7, 5},
	{8, 2}, {8, 3}, {8, 4},
}

// pipeJob is one synthesis of one assay under one strategy.
type pipeJob struct {
	name string // assay/strategy
	g    *seqgraph.Graph
	opts core.Options
	lb   int
	list float64 // list-scheduler objective (exact-proofs)
}

type pipelineWorkload struct {
	jobs  []pipeJob
	exact bool
	rng   *rand.Rand
	tr    *tracer
	jobID int
}

func setupExactProofs(seed int64, e env) (workload, error) {
	var jobs []pipeJob
	add := func(name string, g *seqgraph.Graph, devices, transport, rows, cols int, io bool) error {
		for _, st := range strategies {
			opts := core.Options{Devices: devices, Transport: transport, GridRows: rows, GridCols: cols,
				ModelIO: io, Storage: st, Engine: core.Auto, ILPTimeLimit: exactTimeLimit, Verify: true}
			ls, err := sched.ListSchedule(g, sched.ListOptions{Devices: devices, Transport: transport,
				Mode: sched.TimeAndStorage, Storage: storage.New(st)})
			if err != nil {
				return fmt.Errorf("%s: list schedule: %w", name, err)
			}
			jobs = append(jobs, pipeJob{name: name + "/" + st.Key(), g: g, opts: opts,
				lb: lowerBound(g, devices), list: sched.ObjectiveScore(ls, sched.TimeAndStorage)})
		}
		return nil
	}
	for _, r := range exactRandom {
		g := assay.Random(r[0], 3, int64(r[1]))
		if err := add(fmt.Sprintf("RA%d-s%d", r[0], r[1]), g, 2, 10, 4, 4, false); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{"PCR", "IVD"} {
		b := assay.MustGet(name)
		if err := add(name, b.Graph, b.Devices, b.Transport, b.GridRows, b.GridCols, b.ModelIO); err != nil {
			return nil, err
		}
	}
	return &pipelineWorkload{jobs: jobs, exact: true, rng: rand.New(rand.NewSource(seed)), tr: e.tr}, nil
}

func setupPaperMatrix(seed int64, e env) (workload, error) {
	var jobs []pipeJob
	for _, name := range assay.Names() {
		b := assay.MustGet(name)
		for _, st := range strategies {
			opts := core.Options{Devices: b.Devices, Transport: b.Transport, GridRows: b.GridRows,
				GridCols: b.GridCols, ModelIO: b.ModelIO, Storage: st, Engine: core.Heuristic, Verify: true}
			jobs = append(jobs, pipeJob{name: name + "/" + st.Key(), g: b.Graph, opts: opts,
				lb: lowerBound(b.Graph, b.Devices)})
		}
	}
	return &pipelineWorkload{jobs: jobs, rng: rand.New(rand.NewSource(seed)), tr: e.tr}, nil
}

func (w *pipelineWorkload) close() {}

func (w *pipelineWorkload) finish(*runStats) error { return nil }

func (w *pipelineWorkload) round(ctx context.Context, r int, st *runStats) (time.Duration, error) {
	results := make([]*core.Result, len(w.jobs))
	start := time.Now()
	for _, i := range w.rng.Perm(len(w.jobs)) {
		j := &w.jobs[i]
		w.jobID++
		t0 := time.Now()
		opts := j.opts
		root := w.tr.begin("job", 0, w.jobID)
		if w.tr != nil {
			opts.Progress = stageRecorder(w.tr, root, w.jobID)
		}
		res, err := core.SynthesizeContext(ctx, j.g, opts)
		lat := time.Since(t0)
		w.tr.end(root)
		if err == nil && w.exact && res.SchedInfo != nil && res.SchedInfo.Solver.Gap != 0 {
			err = fmt.Errorf("%s: no proof within %s (gap %g)", j.name, exactTimeLimit, res.SchedInfo.Solver.Gap)
		}
		st.done("job", lat, err)
		if err == nil {
			results[i] = res
		}
	}
	active := time.Since(start)

	// Checks, outside the measured time.
	var errs []error
	tE := map[string]int{}
	for i, res := range results {
		if res == nil {
			continue
		}
		j := &w.jobs[i]
		err := checkChip(j.g, res, j.opts.Devices, j.lb)
		if err == nil && w.exact {
			err = checkProof(res, j.list)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", j.name, err))
			continue
		}
		st.chip(res, j.lb)
		tE[j.name] = res.Schedule.Makespan
		w.count(st, res)
	}
	if !w.exact {
		for _, name := range assay.Names() {
			d, ok1 := tE[name+"/"+strategies[0].Key()]
			u, ok2 := tE[name+"/"+strategies[1].Key()]
			if ok1 && ok2 {
				if err := checkFig10(d, u); err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", name, err))
				}
			}
		}
	}
	if r == 0 && w.tr != nil {
		// A traced chip must equal the chip of an untraced run.
		for i, res := range results {
			if res == nil {
				continue
			}
			j := &w.jobs[i]
			plain, err := core.SynthesizeContext(ctx, j.g, j.opts)
			if err == nil {
				err = sameOutcome(res, plain, w.exact)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%s traced vs untraced: %w", j.name, err))
			}
		}
	}
	return active, errors.Join(errs...)
}

// sameOutcome compares a traced chip with an untraced one. Heuristic chips
// must match exactly. Exact chips must prove the same optimum of the
// scheduling model: the two branch-and-bound workers may settle on
// different optimal model solutions, and those re-time into schedules that
// can differ in tE and in their scored objective.
func sameOutcome(traced, plain *core.Result, exact bool) error {
	if !exact {
		return checkSameChip(traced, plain)
	}
	a, b := traced.SchedInfo.Objective, plain.SchedInfo.Objective
	if math.Abs(a-b) > 1e-6*math.Max(1, math.Abs(b)) {
		return fmt.Errorf("proven optimum %g traced, %g untraced", a, b)
	}
	return nil
}

// count adds a checked result's solver counters to the run's layer counters.
func (w *pipelineWorkload) count(st *runStats, res *core.Result) {
	info := res.SchedInfo
	if info == nil {
		return
	}
	s := info.Solver
	st.counts["milp.solves"]++
	st.counts["milp.nodes"] += float64(s.Nodes)
	st.counts["milp.pivots"] += float64(s.SimplexIters)
	st.counts["milp.cuts_applied"] += float64(s.Cuts.Applied)
	st.counts["milp.cut_rounds"] += float64(s.Cuts.Rounds)
	st.counts["milp.separation_ms"] += float64(s.SeparationWall.Nanoseconds()) / 1e6
	st.counts["milp.refactorizations"] += float64(s.Factor.Refactorizations)
	st.counts["milp.sched_ms"] += float64(res.StageDuration(core.StageSchedule).Nanoseconds()) / 1e6
	if s.Gap == 0 {
		st.counts["milp.proofs"]++
		if info.Winner == "list" {
			st.counts["milp.lost_to_list"]++
		}
	}
}

// stageRecorder returns a progress callback that records every stage the
// pipeline reports finished as a child span of the job's span.
func stageRecorder(tr *tracer, parent, job int) func(core.ProgressEvent) {
	return func(e core.ProgressEvent) {
		if e.Kind != core.EventStageEnd {
			return
		}
		now := time.Now()
		tr.add(layerName(e.Stage), parent, job, now.Add(-e.Duration), now)
	}
}

// layerName names a pipeline stage after the module it runs in.
func layerName(stage string) string {
	if stage == core.StageSchedule {
		return "sched"
	}
	return stage
}

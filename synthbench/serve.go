package main

// The serve-mix workload: one solver session with its caches and a
// persistent store directory, driven by two callers in a closed loop.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"flowsyn/internal/assay"
	"flowsyn/internal/core"
	"flowsyn/internal/seqgraph"
	"flowsyn/internal/service"
	"flowsyn/internal/sim"
	"flowsyn/internal/store"
)

// serveCallers is the number of closed-loop callers and session workers:
// one per core of the 2-core machine the benchmark was sized on.
const serveCallers = 2

// recoverFamily is one (storage strategy, fault kind) pair a base assay is
// recovered under.
type recoverFamily struct {
	strat int
	kind  sim.FaultKind
}

// serveBase is one assay the mix draws jobs from: whether it takes
// Resynthesize edits, and the recovery families it is recovered under.
type serveBase struct {
	name    string
	b       assay.Benchmark
	edits   bool
	recover []recoverFamily
}

// allStrategies pairs every strategy with each of kinds.
func allStrategies(kinds ...sim.FaultKind) []recoverFamily {
	var out []recoverFamily
	for k := range strategies {
		for _, kind := range kinds {
			out = append(out, recoverFamily{k, kind})
		}
	}
	return out
}

// serveBases lists the mix's assays. Edits and recoveries are limited to the
// cases where every edit and every fault on the 10 s grid recovers; the
// cases left out fail arch routing today (see README.md). PCR has one
// device, so it takes no device faults.
func serveBases() []serveBase {
	const dist, ded, hyb = 0, 1, 2
	return []serveBase{
		{name: "PCR", edits: true, recover: allStrategies(sim.FaultChannel, sim.FaultStorage)},
		{name: "IVD", edits: true, recover: allStrategies(sim.FaultDevice, sim.FaultChannel, sim.FaultStorage)},
		{name: "CPA", edits: true, recover: []recoverFamily{
			{dist, sim.FaultDevice}, {ded, sim.FaultDevice}, {ded, sim.FaultStorage}, {hyb, sim.FaultStorage}}},
		{name: "RA30"},
		{name: "RA70"},
	}
}

// faultStep is the spacing of fault instants: faults are detected on a
// 10 s sensing grid starting at t=1.
const faultStep = 10

// serveJob is one request of the mix.
type serveJob struct {
	kind  string // cold, repeat, sweep, resynth, recover
	strat int
	g     *seqgraph.Graph
	opts  core.Options
	lb    int
	prior *serveJob  // the cold job a derived job builds on
	fault sim.Fault  // recover
	draw  [2]float64 // recover: seeded draws that place the fault
	res   *core.Result
	t     *service.Ticket
	err   error
	lat   time.Duration
}

type serveWorkload struct {
	bases    []serveBase
	rng      *rand.Rand
	tr       *tracer
	dir      string
	solver   *service.Solver
	jobID    int
	coldKeys map[string]bool
}

// tracedStore times every call into the persistent store.
type tracedStore struct {
	store.Store
	tr *tracer
}

func (s tracedStore) Get(key string) ([]byte, error) {
	id := s.tr.begin("store", 0, 0)
	defer s.tr.end(id)
	return s.Store.Get(key)
}

func (s tracedStore) Put(key string, payload []byte) error {
	id := s.tr.begin("store", 0, 0)
	defer s.tr.end(id)
	return s.Store.Put(key, payload)
}

func (s tracedStore) Claim(key, owner string) (store.Lease, error) {
	id := s.tr.begin("store", 0, 0)
	defer s.tr.end(id)
	return s.Store.Claim(key, owner)
}

func setupServeMix(seed int64, e env) (workload, error) {
	w := &serveWorkload{rng: rand.New(rand.NewSource(seed)), tr: e.tr, coldKeys: map[string]bool{}}
	w.bases = serveBases()
	for i := range w.bases {
		w.bases[i].b = assay.MustGet(w.bases[i].name)
	}
	parent := filepath.Join(e.root, ".bench_build")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "serve-store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var st store.Store = disk
	if e.tr != nil {
		st = tracedStore{Store: disk, tr: e.tr}
	}
	w.dir = dir
	w.solver = service.New(service.Config{Workers: serveCallers, Store: st})
	return w, nil
}

func (w *serveWorkload) close() {
	w.solver.Close()
	os.RemoveAll(w.dir)
}

// renamed returns a copy of g under a new name: a protocol the session has
// not seen, so a cold cache key, with the same operations as g.
func renamed(g *seqgraph.Graph, name string) *seqgraph.Graph {
	return rebuild(g, name, func(int) int { return 0 })
}

// edit returns g with one seeded op lengthened by 1–3 s, the small protocol
// edit an incremental re-synthesis is for.
func edit(g *seqgraph.Graph, rng *rand.Rand) *seqgraph.Graph {
	op, by := rng.Intn(g.NumOps()), 1+rng.Intn(3)
	return rebuild(g, g.Name, func(i int) int {
		if i == op {
			return by
		}
		return 0
	})
}

func rebuild(g *seqgraph.Graph, name string, extra func(int) int) *seqgraph.Graph {
	out := seqgraph.New(name)
	for i, op := range g.Operations() {
		out.MustAddOperation(op.Name, op.Kind, op.Duration+extra(i), op.Inputs)
	}
	for _, e := range g.Edges() {
		out.MustAddDependency(e.Parent, e.Child)
	}
	return out
}

// schedKey names what the session's schedule cache keys on for a job of
// this mix: the whole assay (name, ops, edges) and the storage strategy.
func schedKey(g *seqgraph.Graph, strat int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s", g.Name, strategies[strat].Key())
	for _, op := range g.Operations() {
		fmt.Fprintf(&b, "|%s:%d:%d:%d", op.Name, op.Kind, op.Duration, op.Inputs)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "|%d>%d", e.Parent, e.Child)
	}
	return b.String()
}

func serveOptions(b serveBase, strat int) core.Options {
	return core.Options{Devices: b.b.Devices, Transport: b.b.Transport, GridRows: b.b.GridRows,
		GridCols: b.b.GridCols, ModelIO: b.b.ModelIO, Storage: strategies[strat],
		Engine: core.Heuristic, Verify: true}
}

// plan draws round r: a cold job per assay and strategy, then per assay a
// repeat, a grid sweep and an edit of one of its cold jobs, and a recovery
// of one on the assays that are recovered.
func (w *serveWorkload) plan(r int) (cold, derived []*serveJob) {
	byBase := make([][]*serveJob, len(w.bases))
	for bi, b := range w.bases {
		for k := range strategies {
			g := renamed(b.b.Graph, fmt.Sprintf("%s-r%d", b.name, r))
			j := &serveJob{kind: "cold", strat: k, g: g, opts: serveOptions(b, k),
				lb: lowerBound(g, b.b.Devices)}
			cold = append(cold, j)
			byBase[bi] = append(byBase[bi], j)
		}
	}
	// The strategy (and recovery family) of each derived job cycles with the
	// round, so every run covers them in the same proportions; the seed
	// picks the edited op, the fault instant and the failed resource.
	for bi, b := range w.bases {
		pick := func(offset int) *serveJob { return byBase[bi][(r+bi+offset)%len(strategies)] }
		p := pick(0)
		derived = append(derived, &serveJob{kind: "repeat", strat: p.strat, g: p.g, opts: p.opts, lb: p.lb, prior: p})
		p = pick(1)
		sweep := p.opts
		sweep.GridRows++
		sweep.GridCols++
		derived = append(derived, &serveJob{kind: "sweep", strat: p.strat, g: p.g, opts: sweep, lb: p.lb, prior: p})
		if b.edits {
			p = pick(2)
			eg := edit(p.g, w.rng)
			derived = append(derived, &serveJob{kind: "resynth", strat: p.strat, g: eg, opts: p.opts,
				lb: lowerBound(eg, b.b.Devices), prior: p})
		}
		if len(b.recover) > 0 {
			fam := b.recover[r%len(b.recover)]
			p = byBase[bi][fam.strat]
			derived = append(derived, &serveJob{kind: "recover", strat: p.strat, g: p.g, opts: p.opts,
				lb: p.lb, prior: p, fault: sim.Fault{Kind: fam.kind}, draw: [2]float64{w.rng.Float64(), w.rng.Float64()}})
		}
	}
	w.rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	w.rng.Shuffle(len(derived), func(i, j int) { derived[i], derived[j] = derived[j], derived[i] })
	return cold, derived
}

// placeFault turns a recovery's seeded draws into a fault on its prior
// chip: an instant of the sensing grid inside the execution, and a device
// or a used segment.
func placeFault(j *serveJob) {
	s, a := j.prior.res.Schedule, j.prior.res.Architecture
	j.fault.Time = 1 + faultStep*int(j.draw[0]*float64((s.Makespan-2)/faultStep+1))
	switch j.fault.Kind {
	case sim.FaultDevice:
		j.fault.Device = int(j.draw[1] * float64(s.Devices))
	default:
		j.fault.Edge = a.UsedEdges[int(j.draw[1]*float64(len(a.UsedEdges)))]
	}
}

func (w *serveWorkload) round(ctx context.Context, r int, st *runStats) (time.Duration, error) {
	cold, derived := w.plan(r)
	active := w.drive(ctx, cold)
	var errs []error
	for _, j := range cold {
		if j.err != nil {
			continue
		}
		w.coldKeys[schedKey(j.g, j.strat)] = true
	}
	var ready []*serveJob
	for _, j := range derived {
		if j.prior.err != nil {
			j.err = fmt.Errorf("%s of %s: prior job failed", j.kind, j.prior.g.Name)
			continue
		}
		if j.kind == "recover" {
			placeFault(j)
		}
		ready = append(ready, j)
	}
	active += w.drive(ctx, ready)
	for _, j := range append(cold, derived...) {
		st.done(j.kind, j.lat, j.err)
		if j.err != nil {
			continue
		}
		if j.kind == "resynth" {
			w.coldKeys[schedKey(j.g, j.strat)] = true
		}
		if err := w.check(ctx, j); err != nil {
			errs = append(errs, fmt.Errorf("%s %s/%s: %w", j.kind, j.g.Name, strategies[j.strat].Key(), err))
			continue
		}
		st.chip(j.res, j.lb)
	}
	return active, errors.Join(errs...)
}

// check applies the independent checks to one served chip.
func (w *serveWorkload) check(ctx context.Context, j *serveJob) error {
	if err := checkChip(j.g, j.res, j.opts.Devices, j.lb); err != nil {
		return err
	}
	switch j.kind {
	case "repeat":
		return checkSameChip(j.res, j.prior.res)
	case "sweep":
		cold, err := core.SynthesizeContext(ctx, j.g, j.opts)
		if err != nil {
			return fmt.Errorf("cold solve for comparison: %w", err)
		}
		return checkSameChip(j.res, cold)
	case "recover":
		return checkPrefixKept(j.prior.res.Schedule, j.res.Schedule, j.fault)
	}
	return nil
}

// drive runs the jobs with serveCallers closed-loop callers and returns the
// wall time from the first submission to the last result.
func (w *serveWorkload) drive(ctx context.Context, jobs []*serveJob) time.Duration {
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(jobs) {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				w.jobID++
				id := w.jobID
				mu.Unlock()
				w.serve(ctx, id, j)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// serve submits one job, waits for its chip and records its latency.
func (w *serveWorkload) serve(ctx context.Context, id int, j *serveJob) {
	if w.tr != nil {
		// The session fingerprints every submitted assay; time the same
		// call on the same input.
		fp := w.tr.begin("seqgraph.fingerprint", 0, id)
		seqgraph.Fingerprint(j.g)
		w.tr.end(fp)
	}
	span := w.tr.begin("service."+j.kind, 0, id)
	t0 := time.Now()
	var t *service.Ticket
	var err error
	switch j.kind {
	case "resynth":
		t, err = w.solver.Resynthesize(ctx, j.prior.t, service.Job{Graph: j.g})
	case "recover":
		t, err = w.solver.Recover(ctx, j.prior.t, j.fault)
	default:
		t, err = w.solver.Submit(ctx, service.Job{Graph: j.g, Options: j.opts})
	}
	if err == nil {
		j.res, err = t.Wait(ctx)
	}
	j.lat = time.Since(t0)
	w.tr.end(span)
	if err != nil {
		err = fmt.Errorf("%s/%s: %w", j.g.Name, strategies[j.strat].Key(), err)
	}
	j.t, j.err = t, err
	if w.tr != nil && t != nil {
		stageSpans(w.tr, span, id, t)
	}
}

// stageSpans turns the stage events the session streamed for a job into
// child spans of the job's span.
func stageSpans(tr *tracer, parent, id int, t *service.Ticket) {
	for e := range t.Events() {
		if e.Kind != service.EventStageEnd {
			continue
		}
		tr.add(layerName(e.Stage), parent, id, e.Time.Add(-e.Duration), e.Time)
	}
}

func (w *serveWorkload) finish(st *runStats) error {
	s := w.solver.Stats()
	st.counts["service.result_hits"] = float64(s.ResultHits)
	st.counts["service.schedule_hits"] = float64(s.ScheduleHits)
	st.counts["service.schedule_solves"] = float64(s.ScheduleSolves)
	st.counts["service.coalesced"] = float64(s.Coalesced)
	st.counts["store.puts"] = float64(s.StorePuts)
	st.counts["store.hits"] = float64(s.StoreHits)
	if int(s.ScheduleSolves) != len(w.coldKeys) {
		return fmt.Errorf("session ran %d schedule solves for %d distinct cold keys", s.ScheduleSolves, len(w.coldKeys))
	}
	return nil
}

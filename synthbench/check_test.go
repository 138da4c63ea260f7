package main

import (
	"context"
	"io"
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/core"
	"flowsyn/internal/milp"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
	"flowsyn/internal/sim"
)

// cpaChip synthesizes CPA on the list scheduler: four devices and
// dependent ops, so every corruption below has somewhere to go.
func cpaChip(t *testing.T) (*seqgraph.Graph, *core.Result, int) {
	t.Helper()
	b := assay.MustGet("CPA")
	res, err := core.Synthesize(b.Graph, core.Options{Devices: b.Devices, Transport: b.Transport,
		GridRows: b.GridRows, GridCols: b.GridCols, ModelIO: b.ModelIO, Engine: core.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	return b.Graph, res, b.Devices
}

// withSchedule returns a copy of res whose schedule has been edited by f.
func withSchedule(res *core.Result, f func(s *sched.Schedule)) *core.Result {
	cp := *res
	cp.Schedule = res.Schedule.Clone()
	f(cp.Schedule)
	return &cp
}

// withArch returns a copy of res whose architecture has been edited by f.
func withArch(res *core.Result, f func(a *arch.Result)) *core.Result {
	cp := *res
	a := *res.Architecture
	a.UsedEdges = append([]arch.EdgeID(nil), a.UsedEdges...)
	f(&a)
	cp.Architecture = &a
	return &cp
}

// sameDevicePair finds two ops bound to one device, for the overlap
// corruption.
func sameDevicePair(s *sched.Schedule) (a, b int) {
	for i := range s.Assignments {
		for j := range s.Assignments {
			if i != j && s.Assignments[i].Device == s.Assignments[j].Device {
				return i, j
			}
		}
	}
	return -1, -1
}

func TestCheckChipAcceptsSynthesizedChip(t *testing.T) {
	g, res, devices := cpaChip(t)
	if err := checkChip(g, res, devices, lowerBound(g, devices)); err != nil {
		t.Fatalf("a synthesized chip was rejected: %v", err)
	}
}

func TestCheckScheduleRejectsCorruptions(t *testing.T) {
	g, res, devices := cpaChip(t)
	e := g.Edges()[0]
	cases := map[string]func(s *sched.Schedule){
		"op placed twice": func(s *sched.Schedule) { s.Assignments[1].Op = s.Assignments[0].Op },
		"device out of range": func(s *sched.Schedule) {
			s.Assignments[0].Device = devices
		},
		"short run": func(s *sched.Schedule) { s.Assignments[2].End-- },
		"child before parent end": func(s *sched.Schedule) {
			d := g.Op(e.Child).Duration
			s.Assignments[e.Child].Start = s.Assignments[e.Parent].End - 1
			s.Assignments[e.Child].End = s.Assignments[e.Child].Start + d
		},
		"overlap on a device": func(s *sched.Schedule) {
			a, b := sameDevicePair(s)
			d := g.Op(s.Assignments[b].Op).Duration
			s.Assignments[b].Start = s.Assignments[a].Start
			s.Assignments[b].End = s.Assignments[b].Start + d
		},
		"missing op": func(s *sched.Schedule) { s.Assignments = s.Assignments[1:] },
	}
	for name, corrupt := range cases {
		bad := withSchedule(res, corrupt)
		if err := checkSchedule(g, bad.Schedule, devices); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLowerBound(t *testing.T) {
	// a(10) -> c(5); b(30) alone. Critical path 30; on one device the work
	// is 45; on two devices it is ceil(45/2) = 23 < 30.
	g := seqgraph.New("lb")
	a := g.MustAddOperation("a", seqgraph.Mix, 10, 2)
	b := g.MustAddOperation("b", seqgraph.Mix, 30, 2)
	c := g.MustAddOperation("c", seqgraph.Mix, 5, 1)
	g.MustAddDependency(a, c)
	_ = b
	if got := lowerBound(g, 1); got != 45 {
		t.Errorf("one device: %d, want 45", got)
	}
	if got := lowerBound(g, 2); got != 30 {
		t.Errorf("two devices: %d, want 30", got)
	}
}

func TestCheckMakespanRejects(t *testing.T) {
	g, res, devices := cpaChip(t)
	lb := lowerBound(g, devices)
	if err := checkMakespan(res.Schedule, res.Schedule.Makespan+1); err == nil {
		t.Error("tE below the lower bound accepted")
	}
	bad := withSchedule(res, func(s *sched.Schedule) { s.Makespan-- })
	if err := checkMakespan(bad.Schedule, lb); err == nil {
		t.Error("misreported tE accepted")
	}
}

func TestCheckGridRejects(t *testing.T) {
	_, res, _ := cpaChip(t)
	cases := map[string]func(a *arch.Result){
		"more segments than the grid": func(a *arch.Result) {
			a.NumEdges = a.Grid.NumEdges() + 1
		},
		"segment listed twice": func(a *arch.Result) { a.UsedEdges[1] = a.UsedEdges[0] },
		"segment off the grid": func(a *arch.Result) {
			a.UsedEdges[0] = arch.EdgeID(a.Grid.NumEdges())
		},
		"more valves than segment ends": func(a *arch.Result) { a.NumValves = 2*a.NumEdges + 1 },
	}
	for name, corrupt := range cases {
		if err := checkGrid(withArch(res, corrupt)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckProofRejects(t *testing.T) {
	_, res, _ := cpaChip(t)
	score := sched.ObjectiveScore(res.Schedule, sched.TimeAndStorage)
	if err := checkProof(res, score); err == nil {
		t.Error("a result without an exact solve accepted")
	}
	proved := *res
	proved.SchedInfo = &sched.ILPInfo{Status: milp.StatusOptimal, Objective: score}
	if err := checkProof(&proved, score); err != nil {
		t.Fatalf("a proved result rejected: %v", err)
	}
	open := proved
	open.SchedInfo = &sched.ILPInfo{Status: milp.StatusTimeLimit, Objective: score}
	open.SchedInfo.Solver.Gap = 0.05
	if err := checkProof(&open, score); err == nil {
		t.Error("a solve with gap 0.05 accepted")
	}
	above := proved
	above.SchedInfo = &sched.ILPInfo{Status: milp.StatusOptimal, Objective: score + 1}
	if err := checkProof(&above, score); err == nil {
		t.Error("a proven objective above the list scheduler's accepted")
	}
}

func TestCountLostToList(t *testing.T) {
	st := newRunStats(io.Discard)
	w := &pipelineWorkload{exact: true}
	for _, winner := range []string{"ilp", "list", "list"} {
		w.count(st, &core.Result{SchedInfo: &sched.ILPInfo{Status: milp.StatusOptimal, Winner: winner}})
	}
	if st.counts["milp.proofs"] != 3 || st.counts["milp.lost_to_list"] != 2 {
		t.Fatalf("proofs %g, lost to list %g; want 3 and 2", st.counts["milp.proofs"], st.counts["milp.lost_to_list"])
	}
}

func TestCheckFig10Rejects(t *testing.T) {
	if err := checkFig10(300, 300); err != nil {
		t.Errorf("equal tE rejected: %v", err)
	}
	if err := checkFig10(300, 299); err == nil {
		t.Error("dedicated faster than distributed accepted")
	}
}

func TestCheckPrefixKeptRejects(t *testing.T) {
	_, res, _ := cpaChip(t)
	f := sim.Fault{Kind: sim.FaultDevice, Time: res.Schedule.Makespan / 2}
	if err := checkPrefixKept(res.Schedule, res.Schedule, f); err != nil {
		t.Fatalf("an unchanged plan rejected: %v", err)
	}
	moved := withSchedule(res, func(s *sched.Schedule) {
		for i := range s.Assignments {
			if s.Assignments[i].Start < f.Time {
				s.Assignments[i].Start++
				s.Assignments[i].End++
				return
			}
		}
	})
	if err := checkPrefixKept(res.Schedule, moved.Schedule, f); err == nil {
		t.Error("a retimed executed op accepted")
	}
	rebound := withSchedule(res, func(s *sched.Schedule) {
		s.Assignments[0].Device = (s.Assignments[0].Device + 1) % s.Devices
	})
	if err := checkPrefixKept(res.Schedule, rebound.Schedule, sim.Fault{Time: res.Schedule.Assignments[0].Start + 1}); err == nil {
		t.Error("an executed op moved to another device accepted")
	}
}

func TestCheckSameChipRejects(t *testing.T) {
	_, res, _ := cpaChip(t)
	if err := checkSameChip(res, withSchedule(res, func(*sched.Schedule) {})); err != nil {
		t.Fatalf("identical chips rejected: %v", err)
	}
	if err := checkSameChip(res, withSchedule(res, func(s *sched.Schedule) { s.Assignments[3].Start++ })); err == nil {
		t.Error("a chip with one op moved accepted")
	}
	if err := checkSameChip(res, withArch(res, func(a *arch.Result) { a.NumValves++ })); err == nil {
		t.Error("a chip with another valve count accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sched", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "arch", Start: 40, End: 70},
		{ID: 4, Parent: 2, Name: "milp", Start: 20, End: 30},
	}
	got := selfTimes(spans)
	want := map[string]float64{"job": 40e-6, "sched": 30e-6, "arch": 30e-6, "milp": 10e-6}
	for name, ms := range want {
		if d := got[name].SelfM - ms; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s self %g ms, want %g", name, got[name].SelfM, ms)
		}
	}
}

// TestServeMixRound drives one serve-mix round through the session with its
// two callers (run it with -race) and applies the round and end-of-run
// checks.
func TestServeMixRound(t *testing.T) {
	root := t.TempDir()
	for _, tr := range []*tracer{nil, newTracer()} {
		w, err := setupServeMix(1, env{root: root, tr: tr})
		if err != nil {
			t.Fatal(err)
		}
		st := newRunStats(io.Discard)
		if _, err := w.round(context.Background(), 0, st); err != nil {
			t.Fatal(err)
		}
		if err := w.finish(st); err != nil {
			t.Fatal(err)
		}
		w.close()
		if st.failed != 0 || st.attempted != 31 {
			t.Fatalf("%d of %d jobs failed, want 0 of 31", st.failed, st.attempted)
		}
	}
}

// TestPaperMatrixTracedRound checks that a traced round returns the chips of
// untraced syntheses (the round itself compares them) and records a span for
// every stage of every job.
func TestPaperMatrixTracedRound(t *testing.T) {
	tr := newTracer()
	w, err := setupPaperMatrix(1, env{root: t.TempDir(), tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	st := newRunStats(io.Discard)
	if _, err := w.round(context.Background(), 0, st); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tr.spans)
	for _, layer := range []string{"job", "sched", "bind", "arch", "phys", "verify"} {
		if self[layer].Calls != 18 {
			t.Errorf("%s: %d spans, want 18", layer, self[layer].Calls)
		}
	}
}

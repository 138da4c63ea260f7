package main

// Output checks written for the benchmark alone: they re-derive what a
// correct chip must satisfy from the assay and the options, without calling
// internal/verify or the pipeline's own validators.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"flowsyn/internal/core"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
	"flowsyn/internal/sim"
)

// checkSchedule confirms that every op of g is placed exactly once on a
// device below devices, runs for its full duration, starts at or after each
// parent ends, and overlaps no other op on its device.
func checkSchedule(g *seqgraph.Graph, s *sched.Schedule, devices int) error {
	n := g.NumOps()
	if len(s.Assignments) != n {
		return fmt.Errorf("%d placements for %d ops", len(s.Assignments), n)
	}
	seen := make([]bool, n)
	for _, a := range s.Assignments {
		if a.Op < 0 || int(a.Op) >= n || seen[a.Op] {
			return fmt.Errorf("op %d placed twice or unknown", a.Op)
		}
		seen[a.Op] = true
		op := g.Op(a.Op)
		if a.Device < 0 || a.Device >= devices {
			return fmt.Errorf("op %s on device %d of %d", op.Name, a.Device, devices)
		}
		if a.Start < 0 || a.End-a.Start != op.Duration {
			return fmt.Errorf("op %s runs [%d,%d), needs %d", op.Name, a.Start, a.End, op.Duration)
		}
	}
	at := make([]sched.Assignment, n)
	for _, a := range s.Assignments {
		at[a.Op] = a
	}
	for _, e := range g.Edges() {
		if at[e.Child].Start < at[e.Parent].End {
			return fmt.Errorf("op %s starts at %d before parent %s ends at %d",
				g.Op(e.Child).Name, at[e.Child].Start, g.Op(e.Parent).Name, at[e.Parent].End)
		}
	}
	byDev := make([][]sched.Assignment, devices)
	for _, a := range at {
		byDev[a.Device] = append(byDev[a.Device], a)
	}
	for d, list := range byDev {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		for i := 1; i < len(list); i++ {
			if list[i].Start < list[i-1].End {
				return fmt.Errorf("ops %s and %s overlap on device %d",
					g.Op(list[i-1].Op).Name, g.Op(list[i].Op).Name, d)
			}
		}
	}
	return nil
}

// lowerBound is a makespan no schedule of g on devices can beat: the longer
// of the critical path of op durations and the total work spread evenly
// over the devices.
func lowerBound(g *seqgraph.Graph, devices int) int {
	n := g.NumOps()
	finish := make([]int, n)
	indeg := make([]int, n)
	for _, e := range g.Edges() {
		indeg[e.Child]++
	}
	var queue []seqgraph.OpID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, seqgraph.OpID(i))
		}
	}
	children := make([][]seqgraph.OpID, n)
	for _, e := range g.Edges() {
		children[e.Parent] = append(children[e.Parent], e.Child)
	}
	ready := make([]int, n)
	cp, work := 0, 0
	for len(queue) > 0 {
		op := queue[0]
		queue = queue[1:]
		d := g.Op(op).Duration
		work += d
		finish[op] = ready[op] + d
		cp = max(cp, finish[op])
		for _, c := range children[op] {
			ready[c] = max(ready[c], finish[op])
			if indeg[c]--; indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	return max(cp, (work+devices-1)/devices)
}

// checkMakespan confirms the reported tE is the latest op end and is not
// below the lower bound.
func checkMakespan(s *sched.Schedule, lb int) error {
	latest := 0
	for _, a := range s.Assignments {
		latest = max(latest, a.End)
	}
	if s.Makespan != latest {
		return fmt.Errorf("reported tE %d, latest op ends at %d", s.Makespan, latest)
	}
	if s.Makespan < lb {
		return fmt.Errorf("tE %d below the lower bound %d", s.Makespan, lb)
	}
	return nil
}

// checkChip runs the checks every workload applies to a finished chip: the
// schedule re-check, tE against the lower bound, and used segments and
// valves within the grid's.
func checkChip(g *seqgraph.Graph, res *core.Result, devices, lb int) error {
	if res == nil || res.Schedule == nil || res.Architecture == nil {
		return fmt.Errorf("incomplete result")
	}
	if err := checkSchedule(g, res.Schedule, devices); err != nil {
		return err
	}
	if err := checkMakespan(res.Schedule, lb); err != nil {
		return err
	}
	return checkGrid(res)
}

// checkGrid confirms the chip uses no more segments than its grid has, each
// at most once, and no more valves than two per used segment.
func checkGrid(res *core.Result) error {
	a := res.Architecture
	gridEdges := a.Grid.Rows*(a.Grid.Cols-1) + (a.Grid.Rows-1)*a.Grid.Cols
	if a.NumEdges != len(a.UsedEdges) || a.NumEdges > gridEdges {
		return fmt.Errorf("%d used segments (%d listed) on a grid of %d", a.NumEdges, len(a.UsedEdges), gridEdges)
	}
	seen := make(map[int]bool, len(a.UsedEdges))
	for _, e := range a.UsedEdges {
		if int(e) < 0 || int(e) >= gridEdges || seen[int(e)] {
			return fmt.Errorf("used segment %d repeated or outside the grid", e)
		}
		seen[int(e)] = true
	}
	if a.NumValves < 0 || a.NumValves > 2*a.NumEdges {
		return fmt.Errorf("%d valves on %d used segments", a.NumValves, a.NumEdges)
	}
	return nil
}

// checkProof confirms an exact solve ended in a proof (gap 0) and that the
// optimum it proved is at most the list scheduler's objective on the same
// instance: the list schedule is a feasible warm start of the model, so a
// proven optimum above it is wrong. It checks the solver's own objective,
// not the returned schedule, which the portfolio may have taken from the
// list scheduler.
func checkProof(res *core.Result, listScore float64) error {
	info := res.SchedInfo
	if info == nil {
		return fmt.Errorf("no exact solve ran")
	}
	if info.Solver.Gap != 0 {
		return fmt.Errorf("solve ended with gap %g (%s)", info.Solver.Gap, info.Status)
	}
	if info.Objective > listScore+1e-6*math.Max(1, listScore) {
		return fmt.Errorf("proven objective %g above the list scheduler's %g", info.Objective, listScore)
	}
	return nil
}

// checkFig10 confirms a dedicated storage unit never finishes an assay
// sooner than distributed channel storage (the direction of Fig. 10).
func checkFig10(distributedTE, dedicatedTE int) error {
	if dedicatedTE < distributedTE {
		return fmt.Errorf("dedicated tE %d below distributed tE %d", dedicatedTE, distributedTE)
	}
	return nil
}

// checkPrefixKept confirms a recovery kept the executed prefix: every op
// that started before the fault keeps its device and start time.
func checkPrefixKept(prior, rec *sched.Schedule, f sim.Fault) error {
	if len(prior.Assignments) != len(rec.Assignments) {
		return fmt.Errorf("recovery has %d placements, prior %d", len(rec.Assignments), len(prior.Assignments))
	}
	for i, a := range prior.Assignments {
		if a.Start >= f.Time {
			continue
		}
		b := rec.Assignments[i]
		if b.Device != a.Device || b.Start != a.Start {
			return fmt.Errorf("executed op %d moved from device %d at %d to device %d at %d",
				a.Op, a.Device, a.Start, b.Device, b.Start)
		}
	}
	return nil
}

// chipDigest hashes what makes two chips the same: every placement, the
// used segments and the valve counts.
func chipDigest(res *core.Result) uint64 {
	h := fnv.New64a()
	put := func(v int) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	s, a := res.Schedule, res.Architecture
	put(s.Makespan)
	for _, x := range s.Assignments {
		put(int(x.Op))
		put(x.Device)
		put(x.Start)
	}
	put(a.Grid.Rows)
	put(a.Grid.Cols)
	for _, e := range a.UsedEdges {
		put(int(e))
	}
	put(a.NumValves)
	put(a.UnitValves)
	return h.Sum64()
}

// checkSameChip confirms two results describe the same chip.
func checkSameChip(got, want *core.Result) error {
	if chipDigest(got) != chipDigest(want) {
		return fmt.Errorf("chip differs: tE %d/%d, valves %d/%d, segments %d/%d",
			got.Schedule.Makespan, want.Schedule.Makespan,
			got.Architecture.NumValves, want.Architecture.NumValves,
			got.Architecture.NumEdges, want.Architecture.NumEdges)
	}
	return nil
}

// Command synthbench is the synthesizer's benchmark. It runs one workload
// for a fixed measuring time, checks every chip it gets back with checks of
// its own, and prints one JSON line of metrics:
//
//	synthbench -workload exact-proofs -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (throughput, latency,
// chip quality, set-up time, memory). With -trace 1 the benchmark times
// every call it makes into a layer, keeps the spans in memory, writes them
// to .bench_build/traces/ under -root when the run ends, and reports the
// per-layer metrics instead. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"flowsyn/internal/core"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow start does not decide it.
const setupReps = 51

// minSamples keeps at least ten latency samples beyond the 90th percentile.
const minSamples = 100

// workload is one set-up workload, ready to run rounds of jobs.
type workload interface {
	// round runs every job of round r once and checks the chips. It returns
	// the time the jobs took, excluding the checks; a non-nil error means
	// a check failed.
	round(ctx context.Context, r int, st *runStats) (time.Duration, error)
	// finish runs the end-of-run checks and adds end-of-run counters.
	finish(st *runStats) error
	close()
}

// env is what a workload's setup gets besides the seed.
type env struct {
	root string
	tr   *tracer // nil on untraced runs
}

var workloads = map[string]func(seed int64, e env) (workload, error){
	"exact-proofs": setupExactProofs,
	"paper-matrix": setupPaperMatrix,
	"serve-mix":    setupServeMix,
}

// chipQuality is what the quality metrics need from one distinct chip. The
// valve and segment means skip chips that route nothing (every op on one
// device, no I/O modelled): they have no valves to average.
type chipQuality struct {
	tE, lb, valves, segments int
}

// runStats accumulates one run's outcomes.
type runStats struct {
	attempted, failed int
	latencies         []float64            // ms, successful jobs
	byKind            map[string][]float64 // ms, per job kind
	chips             map[uint64]chipQuality
	counts            map[string]float64 // layer counters, summed over the run
	log               io.Writer
}

func newRunStats(log io.Writer) *runStats {
	return &runStats{byKind: map[string][]float64{}, chips: map[uint64]chipQuality{},
		counts: map[string]float64{}, log: log}
}

// done records one attempted job.
func (st *runStats) done(kind string, lat time.Duration, err error) {
	st.attempted++
	if err != nil {
		st.failed++
		fmt.Fprintf(st.log, "synthbench: %s job failed: %v\n", kind, err)
		return
	}
	ms := float64(lat.Nanoseconds()) / 1e6
	st.latencies = append(st.latencies, ms)
	st.byKind[kind] = append(st.byKind[kind], ms)
}

// chip records a checked chip for the quality metrics.
func (st *runStats) chip(res *core.Result, lb int) {
	st.chips[chipDigest(res)] = chipQuality{
		tE:       res.Schedule.Makespan,
		lb:       lb,
		valves:   res.Architecture.NumValves + res.Architecture.UnitValves,
		segments: res.Architecture.NumEdges,
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("synthbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: exact-proofs, paper-matrix or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time in seconds (whole rounds)")
	trace := fs.Int("trace", 0, "1: time each layer call and report per-layer metrics")
	root := fs.String("root", ".", "checkout root; traces and the serve store go under its .bench_build/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "synthbench: unknown workload %q or bad -trace %d\n", *name, *trace)
		return 2
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	e := env{root: *root, tr: tr}

	// Set-up: generate the inputs and start the session, several times.
	var setups []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		runtime.GC() // charge no earlier garbage to this set-up
		t0 := time.Now()
		wi, err := setup(*seed, e)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintf(stderr, "synthbench: setup: %v\n", err)
			return 1
		}
		if w != nil {
			w.close()
		}
		w = wi
	}
	defer w.close()

	st := newRunStats(stderr)
	ctx := context.Background()
	var active time.Duration
	rounds := 0
	var checkErr error
	for active.Seconds() < *seconds || len(st.latencies) < minSamples {
		d, err := w.round(ctx, rounds, st)
		active += d
		rounds++
		if err != nil {
			checkErr = fmt.Errorf("round %d: %w", rounds-1, err)
			break
		}
		if st.attempted == st.failed {
			break // nothing succeeds: more rounds will not give samples
		}
	}
	if checkErr == nil {
		checkErr = w.finish(st)
	}

	var metrics map[string]metric
	if tr == nil {
		metrics = endToEnd(st, active, median(setups))
	} else {
		metrics = perLayer(st, tr, rounds)
		e2e := endToEnd(st, active, median(setups))
		fmt.Fprintf(stderr, "synthbench: end-to-end under tracing: %s\n", fmtMetrics(e2e))
		path := filepath.Join(*root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "synthbench: writing trace: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "synthbench: spans written to %s\n", path)
		}
	}
	fmt.Fprintf(stderr, "synthbench: %s seed %d: %d rounds, %d operations attempted, %d failed, %.2f s measured\n",
		*name, *seed, rounds, st.attempted, st.failed, active.Seconds())
	if checkErr != nil {
		fmt.Fprintf(stderr, "synthbench: check failed: %v\n", checkErr)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{checkErr == nil, st.attempted, st.failed, metrics})
	fmt.Fprintln(stdout, string(out))
	if checkErr != nil {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the metrics a user of the synthesizer sees.
func endToEnd(st *runStats, active time.Duration, setup float64) map[string]metric {
	var ratios, valves []float64
	for _, c := range st.chips {
		ratios = append(ratios, float64(c.tE)/float64(c.lb))
		if c.valves > 0 {
			valves = append(valves, float64(c.valves))
		}
	}
	return map[string]metric{
		"setup_s":     {setup, "s"},
		"jobs_per_s":  {float64(len(st.latencies)) / active.Seconds(), "1/s"},
		"job_ms_p50":  {quantile(st.latencies, 0.5), "ms"},
		"job_ms_p90":  {quantile(st.latencies, 0.9), "ms"},
		"tE_lb_ratio": {geomean(ratios), "ratio"},
		"valves_geo":  {geomean(valves), "valves"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// perLayer computes the per-layer metrics from the spans and counters of a
// traced run. Times are mean self time per call; counters are per round.
func perLayer(st *runStats, tr *tracer, rounds int) map[string]metric {
	tr.mu.Lock()
	self := selfTimes(tr.spans)
	tr.mu.Unlock()
	meanMS := func(name string) float64 {
		lt := self[name]
		if lt.Calls == 0 {
			return 0
		}
		return lt.SelfM / float64(lt.Calls)
	}
	perRound := func(k string) float64 { return st.counts[k] / float64(rounds) }
	perSolve := func(k string) float64 {
		if n := st.counts["milp.solves"]; n > 0 {
			return st.counts[k] / n
		}
		return 0
	}
	pivotsPerS := 0.0
	if s := st.counts["milp.sched_ms"]; s > 0 {
		pivotsPerS = st.counts["milp.pivots"] / (s / 1e3)
	}
	var tE, segs, valves []float64
	for _, c := range st.chips {
		tE = append(tE, float64(c.tE))
		if c.valves > 0 {
			segs = append(segs, float64(c.segments))
			valves = append(valves, float64(c.valves))
		}
	}
	recoverMS := 0.0
	if r := st.byKind["recover"]; len(r) > 0 {
		sum := 0.0
		for _, v := range r {
			sum += v
		}
		recoverMS = sum / float64(len(r))
	}
	return map[string]metric{
		"sched.ms":                {meanMS("sched"), "ms"},
		"sched.makespan_geo":      {geomean(tE), "assay_s"},
		"milp.nodes":              {perSolve("milp.nodes"), "count/solve"},
		"milp.pivots":             {perSolve("milp.pivots"), "count/solve"},
		"milp.pivots_per_s":       {pivotsPerS, "1/s"},
		"milp.cuts_applied":       {perSolve("milp.cuts_applied"), "count/solve"},
		"milp.cut_rounds":         {perSolve("milp.cut_rounds"), "count/solve"},
		"milp.separation_ms":      {perSolve("milp.separation_ms"), "ms"},
		"milp.refactorizations":   {perSolve("milp.refactorizations"), "count/solve"},
		"milp.proofs":             {perRound("milp.proofs"), "count/round"},
		"milp.lost_to_list":       {perRound("milp.lost_to_list"), "count/round"},
		"bind.ms":                 {meanMS("bind"), "ms"},
		"arch.ms":                 {meanMS("arch"), "ms"},
		"arch.segments":           {geomean(segs), "segments"},
		"arch.valves":             {geomean(valves), "valves"},
		"phys.ms":                 {meanMS("phys"), "ms"},
		"verify.ms":               {meanMS("verify"), "ms"},
		"service.cold_ms_p50":     {quantile(st.byKind["cold"], 0.5), "ms"},
		"service.warm_ms_p50":     {quantile(append(append([]float64{}, st.byKind["repeat"]...), st.byKind["sweep"]...), 0.5), "ms"},
		"service.resynth_ms_p50":  {quantile(st.byKind["resynth"], 0.5), "ms"},
		"service.recover_ms_p50":  {quantile(st.byKind["recover"], 0.5), "ms"},
		"service.result_hits":     {perRound("service.result_hits"), "count/round"},
		"service.schedule_hits":   {perRound("service.schedule_hits"), "count/round"},
		"service.schedule_solves": {perRound("service.schedule_solves"), "count/round"},
		"service.coalesced":       {perRound("service.coalesced"), "count/round"},
		"seqgraph.fingerprint_ms": {meanMS("seqgraph.fingerprint"), "ms"},
		"store.puts":              {perRound("store.puts"), "count/round"},
		"store.hits":              {perRound("store.hits"), "count/round"},
		"store.ms":                {meanMS("store"), "ms"},
		"recover.ms":              {recoverMS, "ms"},
	}
}

func fmtMetrics(m map[string]metric) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%.6g%s ", k, m[k].Value, m[k].Unit)
	}
	return s
}

// quantile is the nearest-rank q-quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// peakRSSMB is the peak resident memory of this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"ropus/internal/placement"
	"ropus/internal/sim"
	"ropus/internal/telemetry"
)

const (
	// defaultSeed is the GA seed the repository's tests and recorded
	// results use; with it every batch workload must reproduce its
	// recorded plan quality exactly.
	defaultSeed = 42
	// setupRepeats set-ups are timed per run; setup_s is their median.
	setupRepeats = 11
	// mb is the unit of every *_mb metric.
	mb = 1 << 20
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// minPasses bounds a batch run's timed passes from below however
	// short seconds is.
	minPasses int
}

// result is everything one run measured and checked.
type result struct {
	// e2e and layers hold the end-to-end and per-layer metrics; info
	// holds figures that are printed but not part of the JSON contract.
	e2e, layers, info map[string]float64
	attempted, failed int
	// problems lists every error and failed check, in order.
	problems []string
	tracer   *telemetry.Tracer
}

func newResult(o options) *result {
	r := &result{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]float64{}}
	if o.trace {
		r.tracer = telemetry.NewTracer()
	}
	return r
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// passSeed is the GA seed of the k-th timed pass of a run: the default
// seed first, so that pass must reproduce the reference pass byte for
// byte, then seeds derived from the run's seed, so a run's timing
// averages over GA trajectories instead of depending on one.
func passSeed(seed int64, k int) int64 {
	if k == 0 {
		return defaultSeed
	}
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return int64(z>>2) + 1
}

// batchSample is one timed pass.
type batchSample struct {
	d      delta
	traced bool
	pc     *passCtx
	index  int
}

// runBatch measures a batch workload: timed set-ups, then a reference
// pass on the default seeds that is checked in depth and must reproduce
// the recorded plan quality, then timed passes until the time is up.
// A traced run alternates untraced and traced passes with the same GA
// seed, so the traced run measures the same work and its overhead is a
// paired ratio.
func runBatch(ctx context.Context, w batchWorkload, o options) *result {
	r := newResult(o)
	setups := make([]time.Duration, 0, setupRepeats)
	phase := readUsage()
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each set-up starts from the same heap state
		root := r.tracer.StartSpan("setup")
		start := time.Now()
		err := w.setup(root)
		setups = append(setups, time.Since(start))
		root.End()
		if err != nil {
			r.problem("setup: %v", err)
			return r
		}
	}
	r.setupTime(phase, setups)

	r.attempted++
	ref, err := w.pass(ctx, &passCtx{gaSeed: defaultSeed})
	if err != nil {
		r.failed++
		r.problem("reference pass: %v", err)
		return r
	}
	if err := r.checkReference(ref, w.golden()); err != nil {
		r.failed++
		r.problem("reference pass: %v", err)
	}
	r.e2e["servers"] = float64(ref.servers)

	var samples []batchSample
	var twin []byte // the last untraced pass's output
	start := time.Now()
	for k := 0; ; k++ {
		if k >= o.minPasses && time.Since(start) >= o.seconds && (!o.trace || k%2 == 0) {
			break
		}
		pc := &passCtx{gaSeed: passSeed(o.seed, k)}
		traced := o.trace && k%2 == 1
		if o.trace {
			pc.gaSeed = passSeed(o.seed, k/2)
		}
		if traced {
			pc.reg = telemetry.NewRegistry()
			pc.hooks = telemetry.New(pc.reg, nil)
			pc.root = r.tracer.StartSpan("pass", telemetry.Int("pass", k))
			pc.layers = map[string]float64{}
		}
		before := readUsage()
		out, err := w.pass(ctx, pc)
		d := before.to(readUsage())
		pc.root.End()
		r.attempted++
		if err == nil {
			err = checkPass(out, pc.gaSeed == defaultSeed, ref)
		}
		if err == nil && traced && !bytes.Equal(out.fingerprint, twin) {
			err = fmt.Errorf("traced pass output differs from its untraced twin")
		}
		if err == nil && !traced {
			twin = out.fingerprint
		}
		if err != nil {
			r.failed++
			r.problem("pass %d (GA seed %d): %v", k, pc.gaSeed, err)
			continue
		}
		samples = append(samples, batchSample{d: d, traced: traced, pc: pc, index: k})
	}

	var walls, cpus, allocs, raw, stolen []float64
	for _, s := range samples {
		if !s.traced {
			raw = append(raw, s.d.wall.Seconds())
			stolen = append(stolen, s.d.stolen)
			walls = append(walls, s.d.steady(s.d.wall))
			cpus = append(cpus, s.d.cpu.Seconds())
			allocs = append(allocs, float64(s.d.allocBytes)/mb)
		}
	}
	if len(walls) == 0 {
		r.problem("no timed pass completed")
		return r
	}
	r.e2e["plan_s"] = median(walls)
	r.e2e["job_p90_s"] = quantile(walls, 0.9)
	r.e2e["jobs_per_s"] = float64(len(walls)) / sum(walls)
	r.e2e["cpu_s"] = sum(cpus) / float64(len(cpus))
	r.e2e["alloc_mb"] = sum(allocs) / float64(len(allocs))
	r.e2e["max_rss_mb"] = maxRSSMB()
	r.info["passes"] = float64(len(walls))
	r.info["raw_plan_s"] = median(raw)
	r.info["stolen_share"] = median(stolen)
	if o.trace {
		r.batchLayers(samples)
		r.probe(ctx, ref)
	}
	return r
}

// setupTime reports the median set-up, scaled for CPU stolen over the
// whole set-up phase (one set-up is too short to measure steal over).
func (r *result) setupTime(phase usage, setups []time.Duration) {
	d := phase.to(readUsage())
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = d.steady(s)
	}
	r.e2e["setup_s"] = median(xs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// checkPass applies the per-pass checks: every plan is valid, and a
// pass with the reference pass's GA seed reproduces its bytes.
func checkPass(out *passOut, sameSeed bool, ref *passOut) error {
	for i, c := range out.cons {
		if err := checkPlan(c.Problem, c.Plan); err != nil {
			return fmt.Errorf("plan %d: %w", i, err)
		}
	}
	if sameSeed && !bytes.Equal(out.fingerprint, ref.fingerprint) {
		return fmt.Errorf("output differs from the reference pass with the same GA seed")
	}
	return nil
}

// checkReference applies the per-pass checks to a reference pass, then
// re-evaluates every plan without caches and, when golden is not 0,
// compares plan quality with that recorded figure. The re-evaluation is
// the placement.evaluate layer measurement of a traced run.
func (r *result) checkReference(ref *passOut, golden int) error {
	if err := checkPass(ref, false, ref); err != nil {
		return err
	}
	root := r.tracer.StartSpan("check")
	defer root.End()
	before := heapAllocs()
	for i, c := range ref.cons {
		sp := root.Child("placement.evaluate")
		err := reevaluate(c.Problem, c.Plan)
		sp.End()
		if err != nil {
			return fmt.Errorf("plan %d: %w", i, err)
		}
	}
	r.layers["placement.evaluate_alloc_mb"] = float64(heapAllocs()-before) / mb
	if golden != 0 {
		if ref.servers != golden {
			return fmt.Errorf("default seeds use %d servers, recorded %d", ref.servers, golden)
		}
		if ref.spare {
			return fmt.Errorf("default seeds need a spare server, recorded none")
		}
	}
	return nil
}

// counterLayers maps the program's own telemetry counters onto
// per-layer metric names.
var counterLayers = map[string]string{
	"ga.generations":           "ga_generations_total",
	"ga.offspring":             "ga_offspring_evaluated_total",
	"portfolio.translations":   "portfolio_translations_total",
	"portfolio.cap_iterations": "portfolio_cap_iterations_total",
	"sim.searches":             "sim_searches_total",
	"sim.search_iterations":    "sim_search_iterations_total",
	"sim.replays":              "sim_replays_total",
	"sim.replay_slots":         "sim_replay_slots_total",
	"failure.scenarios":        "failure_scenarios_total",
	"failure.infeasible":       "failure_infeasible_scenarios_total",
}

// passSpanLayers are the layers whose time a pass reports as the summed
// self time of its spans with that name.
var passSpanLayers = []string{"trace.read_csv", "trace.validate", "portfolio.translate", "placement.consolidate", "failure.analyze", "report.json"}

// passLayers completes a traced pass's per-layer figures from its
// counters, its resource use and its spans' self times.
func passLayers(pc *passCtx, d delta, self map[string][]time.Duration) map[string]float64 {
	m := pc.layers
	for name, counter := range counterLayers {
		m[name] = float64(pc.counter(counter))
	}
	for _, name := range passSpanLayers {
		m[name+"_s"] = sumSeconds(self[name])
	}
	m["gc.cycles"] = float64(d.gcCycles)
	m["gc.pause_s"] = d.gcPause.Seconds()
	if d.usedCPU > 0 {
		m["gc.cpu_frac"] = d.gcCPU / d.usedCPU
	}
	m["parallel.utilization"] = d.cpu.Seconds() / (d.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	return m
}

// passRoots maps each traced pass's index to its root span's ID.
func passRoots(spans []telemetry.SpanRecord) map[int]int64 {
	roots := map[int]int64{}
	for _, s := range spans {
		if s.Name != "pass" || s.ParentID != 0 {
			continue
		}
		for _, a := range s.Attrs {
			if k, ok := a.Value.(int); ok && a.Key == "pass" {
				roots[k] = s.ID
			}
		}
	}
	return roots
}

// batchLayers turns the traced passes into per-layer metrics: each is the
// median over traced passes of the pass's figure, and the telemetry
// overhead is the median traced/untraced wall ratio of same-seed pairs.
func (r *result) batchLayers(samples []batchSample) {
	spans := r.tracer.Spans()
	self, roots := selfTimes(spans), passRoots(spans)
	perPass := map[string][]float64{}
	var overhead []float64
	for i, s := range samples {
		if !s.traced {
			continue
		}
		if i > 0 && !samples[i-1].traced {
			prev := samples[i-1].d
			overhead = append(overhead, s.d.steady(s.d.wall)/prev.steady(prev.wall)-1)
		}
		for k, v := range passLayers(s.pc, s.d, self[roots[s.index]]) {
			perPass[k] = append(perPass[k], v)
		}
	}
	for k, v := range perPass {
		r.layers[k] = median(v)
	}
	r.layers["telemetry.overhead_frac"] = median(overhead)
	r.onceLayers(self)
}

// onceLayers reports the layers measured once per run from spans: the
// reference check's cold re-evaluation and the median input generation.
func (r *result) onceLayers(self map[int64]map[string][]time.Duration) {
	var gens []float64
	for _, byName := range self {
		if _, ok := byName["check"]; ok {
			r.layers["placement.evaluate_s"] = sumSeconds(byName["placement.evaluate"])
		}
		if g, ok := byName["workload.gen"]; ok {
			gens = append(gens, sumSeconds(g))
		}
	}
	r.layers["workload.gen_s"] = median(gens)
}

// probe times single calls into the simulator for every server group of
// the reference plans, and the hierarchical split where the workload has
// one. These are per-call figures, measured after the timed passes.
func (r *result) probe(ctx context.Context, ref *passOut) {
	r.attempted++
	if err := r.probeCalls(ctx, ref); err != nil {
		r.failed++
		r.problem("probe: %v", err)
	}
	for _, byName := range selfTimes(r.tracer.Spans()) {
		if _, ok := byName["probe"]; !ok {
			continue
		}
		r.layers["sim.aggregate_s"] = medianSeconds(byName["sim.aggregate"])
		r.layers["sim.search_s"] = medianSeconds(byName["sim.search"])
		r.layers["sim.replay_s"] = medianSeconds(byName["sim.replay"])
		r.layers["partition.split_s"] = sumSeconds(byName["partition.split"])
	}
}

func (r *result) probeCalls(ctx context.Context, ref *passOut) error {
	root := r.tracer.StartSpan("probe")
	defer root.End()
	var aggAlloc []float64
	for _, c := range ref.cons {
		p := c.Problem
		byID := make(map[string]sim.Workload, len(p.Apps))
		for _, a := range p.Apps {
			byID[a.ID] = a.Workload
		}
		for _, u := range c.Plan.Usages {
			if len(u.AppIDs) == 0 {
				continue
			}
			ws := make([]sim.Workload, len(u.AppIDs))
			for i, id := range u.AppIDs {
				ws[i] = byID[id]
			}
			alloc, err := probeGroup(ctx, root, p, u.Server.Capacity(), ws)
			if err != nil {
				return err
			}
			aggAlloc = append(aggAlloc, float64(alloc))
		}
	}
	r.layers["sim.aggregate_alloc_b"] = median(aggAlloc)
	if ref.cons[0].Hier != nil {
		sp := root.Child("partition.split")
		groups, err := ref.framework.PartitionPreview(ctx, ref.trans)
		sp.End()
		if err != nil {
			return err
		}
		r.layers["partition.groups"] = float64(len(groups))
	}
	return nil
}

// probeGroup builds one server's aggregate, searches its required
// capacity as the placement evaluator does, and replays it once at the
// capacity found. It returns the bytes the aggregate allocated.
func probeGroup(ctx context.Context, root *telemetry.Span, p *placement.Problem, capacity float64, ws []sim.Workload) (uint64, error) {
	before := heapAllocs()
	sp := root.Child("sim.aggregate")
	agg, err := sim.NewAggregate(ws)
	sp.End()
	alloc := heapAllocs() - before
	if err != nil {
		return 0, err
	}
	cfg := sim.Config{Commitment: p.Commitment, SlotsPerDay: p.SlotsPerDay, DeadlineSlots: p.DeadlineSlots}
	tol := p.Tolerance
	if tol == 0 {
		tol = placement.DefaultTolerance
	}
	sp = root.Child("sim.search")
	out, err := agg.Search(ctx, cfg, capacity, tol)
	sp.End()
	if err != nil {
		return 0, err
	}
	cfg.Capacity = out.Capacity
	sp = root.Child("sim.replay")
	_, err = agg.ReplayWith(sim.NewReplayer(), cfg)
	sp.End()
	return alloc, err
}

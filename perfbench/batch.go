package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"ropus/internal/core"
	"ropus/internal/experiments"
	"ropus/internal/parallel"
	"ropus/internal/placement"
	"ropus/internal/qos"
	"ropus/internal/report"
	"ropus/internal/telemetry"
	"ropus/internal/trace"
	"ropus/internal/workload"
)

// fleetSeed generates the case-study and 1000-app fleets. The fleets
// are part of the workload definitions: the paper's Table 1 is defined
// on one case-study fleet, and other fleet seeds make some of its cases
// infeasible (seed 1 leaves case 4 without a feasible placement). The
// benchmark seed varies the GA seeds instead.
const fleetSeed = 2006

// passCtx is what one pass of a batch workload gets.
type passCtx struct {
	gaSeed int64
	// hooks, reg and root are nil in an untraced pass.
	hooks telemetry.Hooks
	reg   *telemetry.Registry
	root  *telemetry.Span
	// layers collects the pass's measurements that spans cannot carry
	// (CPU during a phase, cache ratios); traced passes only.
	layers map[string]float64
}

func (p *passCtx) span(name string) *telemetry.Span { return p.root.Child(name) }

// counter reads a counter of the pass's registry (0 when untraced).
func (p *passCtx) counter(name string) int64 {
	if p.reg == nil {
		return 0
	}
	return p.reg.Counter(name).Value()
}

// measureConsolidate runs fn and, in a traced pass, records the process
// CPU it used and the placement cache hit ratios of the calls it made.
func (p *passCtx) measureConsolidate(fn func()) {
	if p.reg == nil {
		fn()
		return
	}
	evalHit, evalMiss := p.counter("placement_eval_cache_hits_total"), p.counter("placement_eval_cache_misses_total")
	shHit, shMiss := p.counter("placement_shared_cache_hits_total"), p.counter("placement_shared_cache_misses_total")
	before := readUsage()
	fn()
	d := before.to(readUsage())
	p.layers["placement.consolidate_cpu_s"] += d.cpu.Seconds()
	p.layers["placement.eval_cache_hit_ratio"] = ratio(
		p.counter("placement_eval_cache_hits_total")-evalHit, p.counter("placement_eval_cache_misses_total")-evalMiss)
	p.layers["placement.shared_cache_hit_ratio"] = ratio(
		p.counter("placement_shared_cache_hits_total")-shHit, p.counter("placement_shared_cache_misses_total")-shMiss)
}

// passOut is what one pass produced.
type passOut struct {
	// cons are the pass's consolidations, each checked independently.
	cons []*core.Consolidation
	// fingerprint is the report.JSON output of the pass; passes with the
	// same GA seed must produce identical bytes.
	fingerprint []byte
	// servers is the plan-quality figure of the pass; spare reports a
	// failure sweep that needs a spare server.
	servers int
	spare   bool
	// framework built the last consolidation (for probes).
	framework *core.Framework
	trans     *core.Translation
}

// batchWorkload is a planning pipeline measured as repeated passes.
type batchWorkload interface {
	// setup generates the workload's inputs; it is timed for setup_s.
	setup(root *telemetry.Span) error
	// pass runs the pipeline once.
	pass(ctx context.Context, p *passCtx) (*passOut, error)
	// golden is the servers figure the default seeds must produce.
	golden() int
}

// writeReport appends report.JSON of r to buf under a report.json span.
func writeReport(p *passCtx, buf *bytes.Buffer, r *core.Report) error {
	sp := p.span("report.json")
	n := buf.Len()
	err := report.JSON(buf, r)
	sp.End()
	if p.layers != nil {
		p.layers["report.json_mb"] += float64(buf.Len()-n) / mb
	}
	return err
}

// caseStudyFleet generates the paper's 26-application case-study fleet
// under a workload.gen span.
func caseStudyFleet(root *telemetry.Span) (trace.Set, error) {
	sp := root.Child("workload.gen")
	defer sp.End()
	return workload.Fleet(workload.CaseStudyConfig(fleetSeed))
}

// quickConfig is the framework experiments.Table1 builds with Quick set:
// 16-way servers, a one-hour deadline, a short GA and a coarse capacity
// tolerance. TestTable1MatchesExperiments keeps the two in step.
func quickConfig(theta float64, gaSeed int64, hooks telemetry.Hooks) core.Config {
	ga := placement.DefaultGAConfig(gaSeed)
	ga.MaxGenerations = 40
	ga.Stagnation = 10
	ga.PopulationSize = 16
	return core.Config{
		Commitment:           qos.PoolCommitment{Theta: theta, Deadline: time.Hour},
		ServerCPUs:           16,
		ServerCapacityPerCPU: 1,
		GA:                   ga,
		Tolerance:            0.25,
		Hooks:                hooks,
	}
}

func requirements(normal, fail qos.AppQoS) core.Requirements {
	return core.Requirements{Default: qos.Requirement{Normal: normal, Failure: fail}}
}

// table1 is the paper's six-case Table-1 consolidation, one fresh
// framework per case and the cases run in parallel. All cases translate
// first and then consolidate, so the consolidation phase's CPU is
// attributable to the placement layer.
type table1 struct{ set trace.Set }

func (w *table1) golden() int { return 53 }

func (w *table1) setup(root *telemetry.Span) (err error) {
	w.set, err = caseStudyFleet(root)
	return err
}

func (w *table1) pass(ctx context.Context, p *passCtx) (*passOut, error) {
	cases := experiments.Table1Cases
	fws := make([]*core.Framework, len(cases))
	trs := make([]*core.Translation, len(cases))
	cons := make([]*core.Consolidation, len(cases))
	errs := make([]error, len(cases))
	parallel.ForEach(ctx, 0, len(cases), func(i int) {
		c := cases[i]
		if fws[i], errs[i] = core.New(quickConfig(c.Theta, p.gaSeed, p.hooks)); errs[i] != nil {
			return
		}
		q := experiments.CaseStudyQoS(100-c.MDegr, c.TDegr)
		sp := p.span("portfolio.translate")
		trs[i], errs[i] = fws[i].Translate(ctx, w.set, requirements(q, q))
		sp.End()
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	p.measureConsolidate(func() {
		parallel.ForEach(ctx, 0, len(cases), func(i int) {
			sp := p.span("placement.consolidate")
			cons[i], errs[i] = fws[i].Consolidate(ctx, trs[i])
			sp.End()
		})
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	out := &passOut{cons: cons}
	var buf bytes.Buffer
	for i := range cases {
		if err := writeReport(p, &buf, &core.Report{Translation: trs[i], Consolidation: cons[i]}); err != nil {
			return nil, err
		}
		out.servers += cons[i].ServersUsed()
	}
	out.fingerprint = buf.Bytes()
	return out, nil
}

// failover is the paper's section VI-C failure planning: case-1 normal
// QoS, case-2 failure QoS, then the single-server failure sweep over the
// consolidated pool.
type failover struct{ set trace.Set }

func (w *failover) golden() int { return 9 }

func (w *failover) setup(root *telemetry.Span) (err error) {
	w.set, err = caseStudyFleet(root)
	return err
}

func (w *failover) pass(ctx context.Context, p *passCtx) (*passOut, error) {
	f, err := core.New(quickConfig(0.60, p.gaSeed, p.hooks))
	if err != nil {
		return nil, err
	}
	sp := p.span("portfolio.translate")
	tr, err := f.Translate(ctx, w.set, requirements(
		experiments.CaseStudyQoS(100, 0), experiments.CaseStudyQoS(97, 30*time.Minute)))
	sp.End()
	if err != nil {
		return nil, err
	}
	var cons *core.Consolidation
	p.measureConsolidate(func() {
		sp := p.span("placement.consolidate")
		cons, err = f.Consolidate(ctx, tr)
		sp.End()
	})
	if err != nil {
		return nil, err
	}
	before := f.CacheStats()
	sp = p.span("failure.analyze")
	fr, err := f.PlanForFailures(ctx, tr, cons)
	sp.End()
	if err != nil {
		return nil, err
	}
	if p.layers != nil {
		after := f.CacheStats()
		p.layers["failure.shared_cache_hit_ratio"] = ratio(after.Hits-before.Hits, after.Misses-before.Misses)
	}
	if fr.Truncated {
		return nil, fmt.Errorf("failure report is truncated")
	}
	if errs := fr.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("%d failure scenarios are inconclusive: %w", len(errs), errs[0])
	}
	var buf bytes.Buffer
	if err := writeReport(p, &buf, &core.Report{Translation: tr, Consolidation: cons, Failures: fr}); err != nil {
		return nil, err
	}
	return &passOut{cons: []*core.Consolidation{cons}, fingerprint: buf.Bytes(), servers: cons.ServersUsed(), spare: fr.SpareNeeded}, nil
}

// csvPlan is a plan requested as trace CSV, as a planning client sends
// it: the traces are read and validated, translated, consolidated and
// reported.
type csvPlan struct {
	csv    []byte
	config func(gaSeed int64, hooks telemetry.Hooks) core.Config
	qos    qos.AppQoS
}

func (w *csvPlan) pass(ctx context.Context, p *passCtx) (*passOut, error) {
	sp := p.span("trace.read_csv")
	set, err := trace.ReadCSV(bytes.NewReader(w.csv))
	sp.End()
	if err != nil {
		return nil, err
	}
	if p.layers != nil {
		p.layers["trace.csv_mb"] = float64(len(w.csv)) / mb
	}
	sp = p.span("trace.validate")
	err = set.Validate()
	sp.End()
	if err != nil {
		return nil, err
	}
	f, err := core.New(w.config(p.gaSeed, p.hooks))
	if err != nil {
		return nil, err
	}
	sp = p.span("portfolio.translate")
	tr, err := f.Translate(ctx, set, requirements(w.qos, w.qos))
	sp.End()
	if err != nil {
		return nil, err
	}
	var cons *core.Consolidation
	p.measureConsolidate(func() {
		sp := p.span("placement.consolidate")
		cons, err = f.Consolidate(ctx, tr)
		sp.End()
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeReport(p, &buf, &core.Report{Translation: tr, Consolidation: cons}); err != nil {
		return nil, err
	}
	return &passOut{cons: []*core.Consolidation{cons}, fingerprint: buf.Bytes(), servers: cons.ServersUsed(), framework: f, trans: tr}, nil
}

// fleet1k is the 1000-application hierarchical plan: the fleet arrives
// as trace CSV and is split into sub-pools of at most 25 applications,
// solved by parallel sub-pool searches and stitched into one plan.
type fleet1k struct{ csvPlan }

const fleetApps, fleetPartitionApps = 1000, 25

func (w *fleet1k) golden() int { return 269 }

func (w *fleet1k) setup(root *telemetry.Span) error {
	sp := root.Child("workload.gen")
	set, err := workload.ScaleFleet(workload.ScaleConfig{Apps: fleetApps, Weeks: 1, Interval: time.Hour, Seed: fleetSeed})
	sp.End()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sp = root.Child("trace.write_csv")
	err = trace.WriteCSV(&buf, set)
	sp.End()
	w.csvPlan = csvPlan{csv: buf.Bytes(), config: fleetConfig, qos: defaultQoS}
	return err
}

// defaultConfig is the framework the CLI and a defaulted serve job
// build: θ = 0.6 with a one-hour deadline, 16-way servers, the default
// GA and a 0.1-CPU capacity tolerance.
func defaultConfig(gaSeed int64, hooks telemetry.Hooks) core.Config {
	return core.Config{
		Commitment:           qos.PoolCommitment{Theta: 0.6, Deadline: time.Hour},
		ServerCPUs:           16,
		ServerCapacityPerCPU: 1,
		GA:                   placement.DefaultGAConfig(gaSeed),
		Tolerance:            0.1,
		Hooks:                hooks,
	}
}

// defaultQoS is the CLI's and a defaulted serve job's per-application
// requirement, used for both modes.
var defaultQoS = qos.AppQoS{ULow: 0.5, UHigh: 0.66, UDegr: 0.9, MPercent: 97, TDegr: 30 * time.Minute}

// fleetConfig is the 1000-app plan's framework, as the fleet-scale test
// builds it: the defaults, split into sub-pools solved on GOMAXPROCS
// workers.
func fleetConfig(gaSeed int64, hooks telemetry.Hooks) core.Config {
	c := defaultConfig(gaSeed, hooks)
	c.PartitionApps = fleetPartitionApps
	return c
}

func (w *fleet1k) pass(ctx context.Context, p *passCtx) (*passOut, error) {
	out, err := w.csvPlan.pass(ctx, p)
	if err != nil {
		return nil, err
	}
	if hier := out.cons[0].Hier; hier == nil || len(hier.Partitions) != fleetApps/fleetPartitionApps {
		return nil, fmt.Errorf("hierarchical plan missing or not split into %d sub-pools", fleetApps/fleetPartitionApps)
	}
	return out, nil
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

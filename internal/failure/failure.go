// Package failure implements R-Opus's failure-mode planning (paper
// section VI-C).
//
// Starting from a consolidated normal-mode plan, the planner removes one
// server at a time, switches the applications that were hosted on it to
// their failure-mode QoS translation, and re-runs the consolidation
// algorithm on the remaining servers. If every single-server failure can
// be absorbed this way, the pool needs no spare server: the affected
// applications can operate under their (typically weaker) failure QoS
// until the server is repaired. Realizing the new configuration requires
// a workload migration mechanism, which is outside the planner's scope.
package failure

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/faultinject"
	"ropus/internal/obslog"
	"ropus/internal/parallel"
	"ropus/internal/placement"
	"ropus/internal/resilience"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
)

// Journal unit names for checkpointed sweep results.
const (
	unitScenario = "failure.scenario"
	unitMulti    = "failure.multi"
)

// Input is everything the planner needs beyond the base plan.
type Input struct {
	// Problem is the normal-mode consolidation problem the base plan
	// was computed for.
	Problem *placement.Problem
	// FailureApps holds the failure-mode translations, one per
	// application, aligned by index with Problem.Apps (same IDs).
	FailureApps []placement.App
	// GA configures the re-consolidation searches.
	GA placement.GAConfig
	// Hooks receives planning telemetry (scenario counts, timings and
	// per-scenario spans); nil disables it. It is also propagated to the
	// reduced consolidation problems each scenario solves.
	Hooks telemetry.Hooks
	// Inject is the test-only fault injector consulted at the
	// "failure.scenario" point (keyed by failed server ID or multi-failure
	// Key) and propagated to the reduced consolidation problems; nil (the
	// production default) injects nothing.
	Inject faultinject.Injector
	// Workers bounds the number of scenarios analyzed concurrently: 0
	// selects GOMAXPROCS and 1 forces the sequential sweep. Scenario
	// order, per-scenario results and the Truncated/error semantics are
	// identical at every worker count (scenarios are independent
	// analyses; Problem.Cache, when set, keeps their results bit-exact
	// regardless of completion order).
	Workers int
	// Retry governs self-healing: a scenario whose analysis fails with a
	// transient error (resilience.Transient, or an expired per-attempt
	// deadline) is re-attempted under this policy before being recorded
	// inconclusive. The zero value makes a single attempt, preserving
	// the historical record-and-continue behaviour.
	Retry resilience.Policy
	// Journal, when non-nil, checkpoints every successfully analyzed
	// scenario and replays scenarios already journaled by a resumed run.
	// Replay is bit-exact, so a resumed sweep reports byte-identical
	// results. Journal write failures degrade gracefully: the scenario
	// result is kept, the failed append is counted
	// (checkpoint_append_errors_total) and the sweep continues — a lost
	// checkpoint only costs recompute on the next resume.
	Journal *checkpoint.Journal
}

// Validate checks the input's structural invariants.
func (in Input) Validate() error {
	if in.Problem == nil {
		return errors.New("failure: nil problem")
	}
	if err := in.Problem.Validate(); err != nil {
		return err
	}
	if len(in.FailureApps) != len(in.Problem.Apps) {
		return fmt.Errorf("failure: %d failure-mode apps for %d normal-mode apps",
			len(in.FailureApps), len(in.Problem.Apps))
	}
	for i, a := range in.FailureApps {
		if a.ID != in.Problem.Apps[i].ID {
			return fmt.Errorf("failure: failure-mode app %d is %q, want %q",
				i, a.ID, in.Problem.Apps[i].ID)
		}
		if err := a.Workload.Validate(); err != nil {
			return err
		}
	}
	if err := in.Retry.Validate(); err != nil {
		return err
	}
	return in.GA.Validate()
}

// Scenario is the outcome for the failure of one server.
type Scenario struct {
	// FailedServer is the server removed in this scenario.
	FailedServer string
	// AffectedApps are the applications that were hosted on it.
	AffectedApps []string
	// Feasible reports whether the affected applications could be
	// placed on the remaining servers under failure-mode QoS.
	Feasible bool
	// Plan is the re-consolidated plan when feasible; nil otherwise.
	// Server indexes in the plan refer to Servers below.
	Plan *placement.Plan
	// Servers is the reduced server list the plan was computed against.
	Servers []placement.Server
	// Attempts is how many analysis attempts the scenario took (1 when
	// the first try succeeded; 0 only for a scenario never started).
	Attempts int
	// Recovered reports a scenario that failed transiently and then
	// succeeded on a retry: the verdict is as trustworthy as any other,
	// but the recovery is worth surfacing next to gave-up scenarios.
	Recovered bool
	// GaveUp reports a scenario whose transient failures exhausted the
	// retry policy (true even for a single-attempt policy; false when
	// the sweep's cancellation, not the policy, stopped the attempts).
	GaveUp bool
	// Err records a scenario that could not be evaluated (solver error,
	// injected fault that exhausted the retry policy, ...). An errored
	// scenario proves nothing: Feasible is false but it does not count
	// toward SpareNeeded, because the failure was in the analysis, not
	// in the pool. Errored scenarios are never checkpointed, so a
	// resumed run re-attempts them.
	Err error `json:"-"`
	// ErrText mirrors Err for serialized reports (error values do not
	// survive JSON), so inconclusive scenarios stay diagnosable in serve
	// results and flight recordings.
	ErrText string `json:",omitempty"`
}

// Report aggregates all single-server failure scenarios.
type Report struct {
	Scenarios []Scenario
	// SpareNeeded is true when at least one failure was proven
	// unabsorbable by the remaining servers. Errored scenarios (Err set)
	// are inconclusive and do not set it.
	SpareNeeded bool
	// Truncated reports that the sweep was cancelled before every
	// scenario was evaluated; Scenarios holds the completed prefix.
	Truncated bool
}

// Errors returns the per-scenario errors recorded during the sweep, in
// scenario order (empty when every scenario evaluated cleanly).
func (r *Report) Errors() []error {
	var errs []error
	for _, s := range r.Scenarios {
		if s.Err != nil {
			errs = append(errs, s.Err)
		}
	}
	return errs
}

// Retries summarizes the sweep's self-healing: extra is the number of
// attempts beyond each scenario's first, recovered counts scenarios
// that succeeded after retrying, and gaveUp counts scenarios recorded
// inconclusive after exhausting the retry policy. gaveUp uses the
// per-scenario GaveUp record rather than inferring from Attempts, so a
// single-attempt policy's failures count and scenarios stopped by
// cancellation (not by the policy) do not.
func (r *Report) Retries() (extra, recovered, gaveUp int) {
	for _, s := range r.Scenarios {
		if s.Attempts > 1 {
			extra += s.Attempts - 1
		}
		if s.Recovered {
			recovered++
		}
		if s.GaveUp {
			gaveUp++
		}
	}
	return extra, recovered, gaveUp
}

// Analyze evaluates every single-server failure of the servers used by
// basePlan (removing an unused server is a non-event). The base plan
// must have been produced for in.Problem.
//
// The sweep degrades gracefully: a scenario that cannot be evaluated is
// recorded with its Err and the sweep continues; only when every
// scenario errors does Analyze return a top-level error. Cancelling ctx
// stops the sweep at the next scenario boundary and returns the
// completed prefix with Report.Truncated set and a nil error.
func Analyze(ctx context.Context, in Input, basePlan *placement.Plan) (report *Report, err error) {
	defer robust.Recover("failure.Analyze", &err)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if basePlan == nil {
		return nil, errors.New("failure: nil base plan")
	}
	if err := basePlan.Assignment.Validate(in.Problem); err != nil {
		return nil, err
	}

	h := telemetry.OrNop(in.Hooks)
	ctx, span := telemetry.StartSpanCtx(ctx, in.Hooks, "failure.analyze",
		telemetry.Int("servers", len(in.Problem.Servers)))
	defer span.End()
	scenarioC := h.Counter("failure_scenarios_total")
	infeasibleC := h.Counter("failure_infeasible_scenarios_total")
	errorC := h.Counter("failure_scenario_errors_total")
	replayC := h.Counter("failure_scenarios_replayed_total")
	appendErrC := h.Counter("checkpoint_append_errors_total")
	scenarioSecs := h.Histogram("failure_scenario_seconds", nil)

	// The retry policy reports through the sweep's hooks unless the
	// caller wired its own.
	retry := in.Retry
	if retry.Hooks == nil {
		retry.Hooks = in.Hooks
	}

	// Enumerate the scenarios up front (failing an unused server is a
	// non-event), then fan them out on the worker pool. Results land in
	// index order; ForEach's contiguous-prefix contract preserves the
	// sequential sweep's completed-prefix truncation semantics.
	type job struct {
		srvIdx   int
		affected []int
	}
	var jobs []job
	for srvIdx := range in.Problem.Servers {
		if affected := appsOn(basePlan.Assignment, srvIdx); len(affected) > 0 {
			jobs = append(jobs, job{srvIdx: srvIdx, affected: affected})
		}
	}

	scenarios := make([]Scenario, len(jobs))
	scenarioErrs := make([]error, len(jobs))
	done := parallel.ForEach(ctx, in.Workers, len(jobs), func(i int) {
		j := jobs[i]
		serverID := in.Problem.Servers[j.srvIdx].ID
		key := checkpoint.NewHasher().String(serverID).Sum()
		var cached Scenario
		if ok, cerr := in.Journal.Lookup(unitScenario, key, &cached); cerr == nil && ok {
			// Replayed from a prior run's checkpoint: bit-exact, so the
			// resumed report is byte-identical to an uninterrupted one.
			scenarios[i] = cached
			scenarioC.Inc()
			replayC.Inc()
			return
		}
		start := time.Now()
		scenario, stats, err := resilience.Do(ctx, retry, serverID,
			func(attemptCtx context.Context) (Scenario, error) {
				return analyzeScenario(attemptCtx, ctx, in, basePlan, j.srvIdx, j.affected, serverID)
			})
		scenario.Attempts = stats.Attempts
		scenario.Recovered = stats.Recovered
		scenario.GaveUp = stats.GaveUp
		scenarioC.Inc()
		scenarioSecs.Observe(time.Since(start).Seconds())
		// Only clean, complete verdicts are checkpointed: errored
		// scenarios are inconclusive and should be re-attempted on
		// resume, and a scenario whose search was cut short by the
		// sweep's cancellation (best-so-far Truncated plan) would replay
		// a partial result an uninterrupted run never produces. A failed
		// append never fails the sweep — it only costs recompute later.
		if err == nil && ctx.Err() == nil && (scenario.Plan == nil || !scenario.Plan.Truncated) {
			if aerr := in.Journal.Append(unitScenario, key, scenario); aerr != nil {
				appendErrC.Inc()
			}
		}
		scenarios[i], scenarioErrs[i] = scenario, err
		// Debug, not Info: the parallel sweep completes scenarios in
		// nondeterministic order, which a golden log stream cannot pin.
		obslog.From(ctx).DebugContext(ctx, "failure.scenario",
			slog.String("failed_server", scenario.FailedServer),
			slog.Bool("feasible", scenario.Feasible),
			slog.Int("attempts", scenario.Attempts))
	})

	done, truncated := completedPrefix(ctx, done, len(jobs), scenarioErrs, func(i int) *placement.Plan { return scenarios[i].Plan })
	report = &Report{Truncated: truncated}
	errored := 0
	for i := 0; i < done; i++ {
		scenario := scenarios[i]
		if err := scenarioErrs[i]; err != nil {
			// Degrade: record the scenario as errored and keep sweeping.
			// The remaining scenarios are independent analyses; one bad
			// solver run must not cost the whole report.
			scenario.Err = fmt.Errorf("failure: scenario %q: %w", scenario.FailedServer, err)
			scenario.ErrText = scenario.Err.Error()
			errorC.Inc()
			errored++
		} else if !scenario.Feasible {
			infeasibleC.Inc()
			report.SpareNeeded = true
		}
		report.Scenarios = append(report.Scenarios, scenario)
	}
	span.SetAttr(
		telemetry.Int("scenarios", len(report.Scenarios)),
		telemetry.Int("errors", errored),
		telemetry.Bool("spare_needed", report.SpareNeeded),
		telemetry.Bool("truncated", report.Truncated))
	if errored > 0 && errored == len(report.Scenarios) {
		return nil, fmt.Errorf("failure: every scenario failed to evaluate: %w", errors.Join(report.Errors()...))
	}
	obslog.From(ctx).InfoContext(ctx, "failure.analyze",
		slog.Int("scenarios", len(report.Scenarios)),
		slog.Int("errors", errored),
		slog.Bool("spare_needed", report.SpareNeeded),
		slog.Bool("truncated", report.Truncated))
	return report, nil
}

// completedPrefix returns how many leading scenarios of a sweep its
// report carries and whether that report is truncated. Completeness is
// judged from each scenario's outcome, not from dispatch: with several
// workers every scenario can already be in flight when the cancel
// lands, and each still returns. The report stops at the first scenario
// that observed the sweep's cancellation: one that failed with the
// cancellation's error is left out, one whose search was cut short
// (plan(i) Truncated) is kept as its best-so-far verdict. It is
// truncated whenever it stops short of total or ends on a cut search.
func completedPrefix(ctx context.Context, dispatched, total int, errs []error, plan func(i int) *placement.Plan) (int, bool) {
	if ctx.Err() != nil {
		for i := 0; i < dispatched; i++ {
			if errors.Is(errs[i], ctx.Err()) {
				return i, true
			}
			if p := plan(i); errs[i] == nil && p != nil && p.Truncated {
				return i + 1, true
			}
		}
	}
	return dispatched, dispatched < total
}

// analyzeScenario wraps analyzeOne with the "failure.scenario" fault
// injection point, preserving the scenario's identity (failed server,
// affected apps) even when the analysis errors. ctx is the (possibly
// deadline-bounded) attempt context; parent is the sweep context, used
// to tell an expired attempt deadline — retryable — from cancellation.
func analyzeScenario(ctx, parent context.Context, in Input, basePlan *placement.Plan, srvIdx int, affected []int, key string) (Scenario, error) {
	scenario := Scenario{
		FailedServer: in.Problem.Servers[srvIdx].ID,
		AffectedApps: make([]string, 0, len(affected)),
	}
	for _, a := range affected {
		scenario.AffectedApps = append(scenario.AffectedApps, in.Problem.Apps[a].ID)
	}
	if in.Inject != nil {
		o := in.Inject.Hit("failure.scenario", key)
		if o.Delay > 0 {
			t := time.NewTimer(o.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return scenario, ctx.Err()
			}
		}
		if o.Err != nil {
			return scenario, o.Err
		}
	}
	full, err := analyzeOne(ctx, in, basePlan, srvIdx, affected)
	if err != nil {
		return scenario, err
	}
	// Consolidate reports context expiry as a Truncated plan with a nil
	// error. Under a per-attempt deadline a silently partial plan must
	// become a transient error so the policy retries it; only parent
	// cancellation may truncate a sweep.
	if full.Plan != nil && full.Plan.Truncated && ctx.Err() != nil && parent.Err() == nil {
		return scenario, resilience.MarkTransient(
			fmt.Errorf("failure: scenario %q: attempt deadline cut the search short", scenario.FailedServer))
	}
	return full, nil
}

// analyzeOne re-consolidates after removing server srvIdx.
func analyzeOne(ctx context.Context, in Input, basePlan *placement.Plan, srvIdx int, affected []int) (Scenario, error) {
	p := in.Problem
	scenario := Scenario{
		FailedServer: p.Servers[srvIdx].ID,
		AffectedApps: make([]string, 0, len(affected)),
	}
	for _, a := range affected {
		scenario.AffectedApps = append(scenario.AffectedApps, p.Apps[a].ID)
	}

	if len(p.Servers) == 1 {
		return scenario, nil // nothing left to host the apps: infeasible
	}

	// Build the reduced problem: the failed server disappears; affected
	// applications switch to their failure-mode translation.
	isAffected := make(map[int]bool, len(affected))
	for _, a := range affected {
		isAffected[a] = true
	}
	apps := make([]placement.App, len(p.Apps))
	for i := range p.Apps {
		if isAffected[i] {
			apps[i] = in.FailureApps[i]
		} else {
			apps[i] = p.Apps[i]
		}
	}
	servers := make([]placement.Server, 0, len(p.Servers)-1)
	oldToNew := make([]int, len(p.Servers))
	for i, s := range p.Servers {
		if i == srvIdx {
			oldToNew[i] = -1
			continue
		}
		oldToNew[i] = len(servers)
		servers = append(servers, s)
	}
	reduced := &placement.Problem{
		Apps:          apps,
		Servers:       servers,
		Commitment:    p.Commitment,
		SlotsPerDay:   p.SlotsPerDay,
		DeadlineSlots: p.DeadlineSlots,
		Tolerance:     p.Tolerance,
		Hooks:         in.Hooks,
		Inject:        in.Inject,
		// The shared simulation cache crosses scenario boundaries: a
		// failed server changes which groups are legal, not what a group
		// costs on a survivor, so base-plan results are valid here.
		Cache: p.Cache,
	}

	// Initial assignment: unaffected applications stay put; affected
	// ones are spread round-robin over the remaining servers, letting
	// the genetic search find real homes.
	initial := make(placement.Assignment, len(apps))
	next := 0
	for i, old := range basePlan.Assignment {
		if mapped := oldToNew[old]; mapped >= 0 {
			initial[i] = mapped
			continue
		}
		initial[i] = next % len(servers)
		next++
	}

	plan, err := placement.Consolidate(ctx, reduced, initial, in.GA)
	if errors.Is(err, placement.ErrNoFeasible) {
		return scenario, nil // infeasible, not an error
	}
	if err != nil {
		return Scenario{}, err
	}
	scenario.Feasible = true
	scenario.Plan = plan
	scenario.Servers = servers
	return scenario, nil
}

// Migrations returns the container moves needed to realize this
// scenario's plan starting from the base configuration: applications on
// the failed server evacuate, and the re-consolidation may also
// relocate others. The base problem and plan must be the ones the
// scenario was computed from.
func (s *Scenario) Migrations(base *placement.Problem, basePlan *placement.Plan) ([]placement.Move, error) {
	if !s.Feasible || s.Plan == nil {
		return nil, errors.New("failure: scenario has no feasible plan")
	}
	if base == nil || basePlan == nil {
		return nil, errors.New("failure: need the base problem and plan")
	}
	apps := make([]string, len(base.Apps))
	for i, a := range base.Apps {
		apps[i] = a.ID
	}
	return placement.MigrationsByServerID(apps,
		base.Servers, basePlan.Assignment,
		s.Servers, s.Plan.Assignment)
}

// appsOn lists the applications assigned to server s.
func appsOn(a placement.Assignment, s int) []int {
	var out []int
	for app, srv := range a {
		if srv == s {
			out = append(out, app)
		}
	}
	return out
}

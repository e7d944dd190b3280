package failure

// The one failure sweep behind Analyze, AnalyzeMulti and
// AnalyzeScenarios. Each front end validates its arguments, enumerates
// its jobs and opens its span; sweep fans the jobs out, replays and
// checkpoints them, retries transient failures and assembles the
// completed prefix, and evaluate is the single §VI-C evaluation every
// job runs: remove servers, switch the displaced applications to
// failure-mode QoS, re-place them on the survivors.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ropus/internal/parallel"
	"ropus/internal/placement"
	"ropus/internal/resilience"
	"ropus/internal/telemetry"
)

// job is one scenario of a sweep: id names it in errors, retries and
// the "failure.scenario" injection point; key is its checkpoint record
// key.
type job struct {
	id  string
	key uint64
}

// outcome is the scenario record a sweep fills: *Scenario for the
// single-server sweep, *MultiScenario for the other two.
type outcome[S any] interface {
	*S
	// settle records the retry policy's attempt statistics.
	settle(resilience.Stats)
	// fail records the error that left the scenario inconclusive.
	fail(error)
	// verdict reads back what the sweep and its report need.
	verdict() verdict
}

// verdict is the part of a scenario record shared by every sweep.
type verdict struct {
	feasible bool
	plan     *placement.Plan
	err      error
	stats    resilience.Stats
}

func (s *Scenario) settle(st resilience.Stats) {
	s.Attempts, s.Recovered, s.GaveUp = st.Attempts, st.Recovered, st.GaveUp
}

func (s *Scenario) fail(err error) { s.Err, s.ErrText = err, err.Error() }

func (s *Scenario) verdict() verdict {
	return verdict{s.Feasible, s.Plan, s.Err, resilience.Stats{Attempts: s.Attempts, Recovered: s.Recovered, GaveUp: s.GaveUp}}
}

func (s *MultiScenario) settle(st resilience.Stats) {
	s.Attempts, s.Recovered, s.GaveUp = st.Attempts, st.Recovered, st.GaveUp
}

func (s *MultiScenario) fail(err error) { s.Err, s.ErrText = err, err.Error() }

func (s *MultiScenario) verdict() verdict {
	return verdict{s.Feasible, s.Plan, s.Err, resilience.Stats{Attempts: s.Attempts, Recovered: s.Recovered, GaveUp: s.GaveUp}}
}

// sweepErrors returns the per-scenario errors recorded during a sweep,
// in scenario order.
func sweepErrors[S any, P outcome[S]](scenarios []S) []error {
	var errs []error
	for i := range scenarios {
		if err := P(&scenarios[i]).verdict().err; err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// sweepRetries summarizes a sweep's self-healing; see Report.Retries.
func sweepRetries[S any, P outcome[S]](scenarios []S) (extra, recovered, gaveUp int) {
	for i := range scenarios {
		st := P(&scenarios[i]).verdict().stats
		if st.Attempts > 1 {
			extra += st.Attempts - 1
		}
		if st.Recovered {
			recovered++
		}
		if st.GaveUp {
			gaveUp++
		}
	}
	return extra, recovered, gaveUp
}

// validateBase checks the arguments every sweep takes.
func (in Input) validateBase(basePlan *placement.Plan) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if basePlan == nil {
		return errors.New("failure: nil base plan")
	}
	return basePlan.Assignment.Validate(in.Problem)
}

// sweep evaluates jobs on the worker pool and returns the completed
// prefix of their scenario records, in job order. eval runs one attempt
// of job i under the attempt context ctx; parent is the sweep context.
// evaluated, when non-nil, sees each freshly evaluated (not replayed)
// record. Errored scenarios are recorded with their Err and the sweep
// continues; err is set only when every completed scenario errored.
// spare reports a scenario proven unabsorbable, truncated a report cut
// short by cancellation (see completedPrefix).
func sweep[S any, P outcome[S]](ctx context.Context, in Input, unit string, jobs []job,
	eval func(ctx, parent context.Context, i int) (S, error), evaluated func(P)) (out []S, errored int, spare, truncated bool, err error) {
	h := telemetry.OrNop(in.Hooks)
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

	// Results land in job order; ForEach's contiguous-prefix contract
	// preserves the sequential sweep's completed-prefix truncation
	// semantics.
	scenarios := make([]S, len(jobs))
	errs := make([]error, len(jobs))
	done := parallel.ForEach(ctx, in.Workers, len(jobs), func(i int) {
		j := jobs[i]
		var cached S
		if ok, cerr := in.Journal.Lookup(unit, j.key, &cached); cerr == nil && ok {
			// Replayed from a prior run's checkpoint: bit-exact, so the
			// resumed report is byte-identical to an uninterrupted one.
			scenarios[i] = cached
			scenarioC.Inc()
			replayC.Inc()
			return
		}
		start := time.Now()
		scenario, stats, err := resilience.Do(ctx, retry, j.id,
			func(attemptCtx context.Context) (S, error) { return eval(attemptCtx, ctx, i) })
		P(&scenario).settle(stats)
		scenarioC.Inc()
		scenarioSecs.Observe(time.Since(start).Seconds())
		// Only clean, complete verdicts are checkpointed: errored
		// scenarios are inconclusive and should be re-attempted on
		// resume, and a scenario whose search was cut short by the
		// sweep's cancellation (best-so-far Truncated plan) would replay
		// a partial result an uninterrupted run never produces. A failed
		// append never fails the sweep — it only costs recompute later.
		if v := P(&scenario).verdict(); err == nil && ctx.Err() == nil && (v.plan == nil || !v.plan.Truncated) {
			if aerr := in.Journal.Append(unit, j.key, scenario); aerr != nil {
				appendErrC.Inc()
			}
		}
		scenarios[i], errs[i] = scenario, err
		if evaluated != nil {
			evaluated(P(&scenarios[i]))
		}
	})

	done, truncated = completedPrefix(ctx, done, len(jobs), errs, func(i int) *placement.Plan { return P(&scenarios[i]).verdict().plan })
	for i := 0; i < done; i++ {
		s := P(&scenarios[i])
		if err := errs[i]; err != nil {
			// Degrade: record the scenario as errored and keep sweeping.
			// The remaining scenarios are independent analyses; one bad
			// solver run must not cost the whole report.
			s.fail(fmt.Errorf("failure: scenario %q: %w", jobs[i].id, err))
			errorC.Inc()
			errored++
		} else if !s.verdict().feasible {
			infeasibleC.Inc()
			spare = true
		}
		out = append(out, *s)
	}
	if errored > 0 && errored == len(out) {
		err = fmt.Errorf("failure: every scenario failed to evaluate: %w", errors.Join(sweepErrors[S, P](out)...))
	}
	return out, errored, spare, truncated, err
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

// evaluate is the §VI-C evaluation every sweep runs for one scenario:
// it takes the "failure.scenario" fault-injection hit for id, closes
// the failed set under spec's cascade when requested, switches the
// applications on failed servers to their failure-mode translation and
// re-consolidates on the survivors under spec's θ override. A single
// failure or a k-combination passes a zero spec. Even when it errors,
// the returned record carries the identity established so far, so the
// report can say which analysis failed. ctx is the (possibly
// deadline-bounded) attempt context; parent is the sweep context, used
// to tell an expired attempt deadline — retryable — from cancellation.
func evaluate(ctx, parent context.Context, in Input, basePlan *placement.Plan, id string, servers []int, spec ScenarioSpec) (MultiScenario, error) {
	p := in.Problem
	failed := make(map[int]bool, len(servers))
	for _, s := range servers {
		failed[s] = true
	}
	scenario := MultiScenario{Name: spec.Name, Theta: spec.Theta, FailedServers: failedIDs(p, failed)}
	if in.Inject != nil {
		o := in.Inject.Hit("failure.scenario", id)
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

	if spec.Cascade {
		added, rounds := cascadeClosure(in, basePlan, failed, spec.MaxRounds, spec.OverloadFactor)
		scenario.CascadeRounds = rounds
		for _, s := range added {
			scenario.CascadeAdded = append(scenario.CascadeAdded, p.Servers[s].ID)
			failed[s] = true
		}
		scenario.FailedServers = failedIDs(p, failed)
	}

	var affected []int
	for app, srv := range basePlan.Assignment {
		if failed[srv] {
			affected = append(affected, app)
			scenario.AffectedApps = append(scenario.AffectedApps, p.Apps[app].ID)
		}
	}
	if len(p.Servers) <= len(failed) {
		return scenario, nil // nothing survives
	}
	feasible, plan, survivors, err := consolidateSurvivors(ctx, in, basePlan, failed, affected, spec.Theta)
	if err != nil {
		return scenario, err
	}
	// Consolidate reports context expiry as a Truncated plan with a nil
	// error. Under a per-attempt deadline a silently partial plan must
	// become a transient error so the policy retries it; only parent
	// cancellation may truncate a sweep.
	if plan != nil && plan.Truncated && ctx.Err() != nil && parent.Err() == nil {
		return scenario, resilience.MarkTransient(
			fmt.Errorf("failure: scenario %q: attempt deadline cut the search short", id))
	}
	if feasible {
		scenario.Feasible = true
		scenario.Plan = plan
		scenario.Servers = survivors
	}
	return scenario, nil
}

// failedIDs lists the failed servers' IDs in pool order.
func failedIDs(p *placement.Problem, failed map[int]bool) []string {
	var ids []string
	for i, s := range p.Servers {
		if failed[i] {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// consolidateSurvivors builds the reduced problem — failed servers
// removed, affected applications on their failure-mode translation,
// optional θ override — and runs the consolidation search from the
// deterministic evacuation seed.
func consolidateSurvivors(ctx context.Context, in Input, basePlan *placement.Plan, failed map[int]bool, affected []int, thetaOverride float64) (feasible bool, plan *placement.Plan, servers []placement.Server, err error) {
	p := in.Problem
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
	servers = make([]placement.Server, 0, len(p.Servers)-len(failed))
	oldToNew := make([]int, len(p.Servers))
	for i, s := range p.Servers {
		if failed[i] {
			oldToNew[i] = -1
			continue
		}
		oldToNew[i] = len(servers)
		servers = append(servers, s)
	}
	commitment := p.Commitment
	if thetaOverride > 0 {
		commitment.Theta = thetaOverride
	}
	reduced := &placement.Problem{
		Apps:          apps,
		Servers:       servers,
		Commitment:    commitment,
		SlotsPerDay:   p.SlotsPerDay,
		DeadlineSlots: p.DeadlineSlots,
		Tolerance:     p.Tolerance,
		Hooks:         in.Hooks,
		Inject:        in.Inject,
		// The shared simulation cache stays valid across scenarios — a
		// failed server changes which groups are legal, not what a group
		// costs on a survivor — and across θ overrides, because the
		// commitment is part of the cached entries' content hash.
		Cache: p.Cache,
	}
	// Initial assignment: unaffected applications stay put; affected
	// ones are spread round-robin over the survivors, letting the
	// genetic search find real homes.
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
	plan, err = placement.Consolidate(ctx, reduced, initial, in.GA)
	if errors.Is(err, placement.ErrNoFeasible) {
		return false, nil, servers, nil
	}
	if err != nil {
		return false, nil, nil, err
	}
	return true, plan, servers, nil
}

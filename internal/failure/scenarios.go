package failure

// Scenario-class failure planning: beyond one-at-a-time server removal
// (Analyze) and brute-force k-combinations (AnalyzeMulti), shared pools
// fail in correlated groups — a rack, a zone, a power feed — and the
// survivors of a correlated loss can cascade past their degradation
// ceiling. AnalyzeScenarios evaluates an explicit list of named
// scenarios, each a concrete failed-server set with optional cascade
// closure and a per-scenario θ commitment override (maintenance
// windows, degraded-pool operation), on the same worker pool,
// retry/checkpoint and simulation-cache machinery as the other sweeps,
// and scores every outcome with per-application revenue economics so
// the report ranks scenarios by expected revenue at risk.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ropus/internal/checkpoint"
	"ropus/internal/placement"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
)

// Journal unit name for checkpointed scenario-class results. It is
// distinct from unitMulti so a scenario journal cannot replay a
// k-combination record or vice versa.
const unitSpec = "failure.scenario_spec"

// DefaultCascadeRounds bounds a cascade closure that does not set its
// own MaxRounds. The closure also terminates unconditionally: every
// round must fail at least one more server, so rounds never exceed the
// surviving-server count.
const DefaultCascadeRounds = 4

// ScenarioSpec names one concrete failure scenario: a set of servers
// lost together, with optional cascade closure and commitment override.
// Specs are produced by the scenario DSL (internal/scenario) or built
// directly.
type ScenarioSpec struct {
	// Name identifies the scenario in reports and checkpoint records.
	Name string
	// Servers is the initially failed server set (IDs from the
	// placement problem).
	Servers []string
	// Theta, when > 0, overrides the pool's CoS2 resource access
	// probability for the survivors — the degraded commitment a pool
	// honours during a maintenance window. 0 keeps the pool default.
	Theta float64
	// Cascade enables the overload closure: load evacuated from failed
	// servers is spread deterministically over the survivors, any
	// survivor pushed past its overload threshold fails too, and the
	// process repeats to a fixed point (bounded by MaxRounds).
	Cascade bool
	// MaxRounds bounds the cascade closure; 0 selects
	// DefaultCascadeRounds. Ignored unless Cascade is set.
	MaxRounds int
	// OverloadFactor scales the overload threshold: a survivor fails
	// when the slot-wise peak of its assigned demands exceeds
	// capacity * OverloadFactor. 0 selects 1.0. Ignored unless Cascade.
	OverloadFactor float64
	// Probability weights the scenario's revenue at risk into its
	// expected value; 0 selects 1.
	Probability float64
}

// normalized returns the spec with defaults filled in; Validate
// accepts only the normalized form's invariants.
func (s ScenarioSpec) normalized() ScenarioSpec {
	if s.MaxRounds == 0 {
		s.MaxRounds = DefaultCascadeRounds
	}
	if s.OverloadFactor == 0 {
		s.OverloadFactor = 1
	}
	if s.Probability == 0 {
		s.Probability = 1
	}
	return s
}

// Validate checks one spec against the problem's server list.
func (s ScenarioSpec) Validate(serverIDs map[string]int) error {
	if s.Name == "" {
		return errors.New("failure: scenario spec needs a name")
	}
	if len(s.Servers) == 0 {
		return fmt.Errorf("failure: scenario %q has no servers", s.Name)
	}
	seen := make(map[string]bool, len(s.Servers))
	for _, id := range s.Servers {
		if _, ok := serverIDs[id]; !ok {
			return fmt.Errorf("failure: scenario %q names unknown server %q", s.Name, id)
		}
		if seen[id] {
			return fmt.Errorf("failure: scenario %q lists server %q twice", s.Name, id)
		}
		seen[id] = true
	}
	if s.Theta < 0 || s.Theta > 1 {
		return fmt.Errorf("failure: scenario %q theta %v outside [0, 1]", s.Name, s.Theta)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("failure: scenario %q MaxRounds %d < 0", s.Name, s.MaxRounds)
	}
	if s.OverloadFactor < 0 {
		return fmt.Errorf("failure: scenario %q OverloadFactor %v < 0", s.Name, s.OverloadFactor)
	}
	if s.Probability < 0 || s.Probability > 1 {
		return fmt.Errorf("failure: scenario %q probability %v outside [0, 1]", s.Name, s.Probability)
	}
	return nil
}

// fold mixes the spec's result-determining fields into a checkpoint
// key. Name is included: it appears in the emitted scenario record, so
// a record replayed under a different name would not be byte-identical.
func (s ScenarioSpec) fold(h *checkpoint.Hasher) {
	h.String(s.Name).Int(int64(len(s.Servers)))
	for _, id := range s.Servers {
		h.String(id)
	}
	h.Float(s.Theta).Bool(s.Cascade).Int(int64(s.MaxRounds)).Float(s.OverloadFactor)
}

// AppValue is one application's economics: the revenue it earns per
// hour when serving normally, and the contractual penalty per hour of
// degraded or lost service.
type AppValue struct {
	RevenuePerHour float64 `json:"revenuePerHour"`
	PenaltyPerHour float64 `json:"penaltyPerHour"`
}

// Economics maps applications to their revenue/penalty values, with
// pool-wide defaults for apps not listed. The zero value prices every
// app at zero, which disables ranking but never errors.
type Economics struct {
	DefaultRevenuePerHour float64             `json:"defaultRevenuePerHour"`
	DefaultPenaltyPerHour float64             `json:"defaultPenaltyPerHour"`
	PerApp                map[string]AppValue `json:"apps,omitempty"`
}

// For returns the economics of one application.
func (e *Economics) For(appID string) AppValue {
	if e == nil {
		return AppValue{}
	}
	if v, ok := e.PerApp[appID]; ok {
		return v
	}
	return AppValue{RevenuePerHour: e.DefaultRevenuePerHour, PenaltyPerHour: e.DefaultPenaltyPerHour}
}

// Validate rejects non-finite or negative values.
func (e *Economics) Validate() error {
	if e == nil {
		return nil
	}
	check := func(name string, v float64) error {
		if v != v || v < 0 || v > 1e18 {
			return fmt.Errorf("failure: economics %s %v is not a finite non-negative value", name, v)
		}
		return nil
	}
	if err := check("defaultRevenuePerHour", e.DefaultRevenuePerHour); err != nil {
		return err
	}
	if err := check("defaultPenaltyPerHour", e.DefaultPenaltyPerHour); err != nil {
		return err
	}
	for id, v := range e.PerApp {
		if err := check("revenuePerHour for "+id, v.RevenuePerHour); err != nil {
			return err
		}
		if err := check("penaltyPerHour for "+id, v.PenaltyPerHour); err != nil {
			return err
		}
	}
	return nil
}

// AppRisk is one application's contribution to a scenario's revenue at
// risk.
type AppRisk struct {
	AppID string `json:"appId"`
	// AtRisk is the per-hour value at risk: revenue + penalty when the
	// scenario is unabsorbable (or inconclusive, as an upper bound),
	// the degradation penalty alone when the survivors absorb it.
	AtRisk float64 `json:"atRisk"`
}

// ScoreScenario prices one scenario outcome: each affected application
// risks its full revenue plus penalty when the scenario is infeasible
// or inconclusive (service down — inconclusive scores as the upper
// bound), and the degradation penalty alone when the survivors absorb
// it under failure-mode QoS. The per-app breakdown sums exactly to the
// returned total (same operations, same order), which is the revenue-
// conservation invariant the property suite pins.
func ScoreScenario(affectedApps []string, feasible bool, econ *Economics) (total float64, perApp []AppRisk) {
	perApp = make([]AppRisk, 0, len(affectedApps))
	for _, id := range affectedApps {
		v := econ.For(id)
		atRisk := v.PenaltyPerHour
		if !feasible {
			atRisk = v.RevenuePerHour + v.PenaltyPerHour
		}
		perApp = append(perApp, AppRisk{AppID: id, AtRisk: atRisk})
		total += atRisk
	}
	return total, perApp
}

// AnalyzeScenarios evaluates a list of named failure scenarios against
// the base plan: correlated domain losses, cascades and maintenance
// windows compiled by the scenario DSL (or built directly). Each
// scenario removes its failed set, applies the cascade closure when
// requested, switches the affected applications to failure-mode QoS and
// re-consolidates the survivors — under the scenario's θ override when
// set. Economics (nil prices everything at zero) score each outcome
// into RevenueAtRisk/ExpectedRevenueAtRisk; scoring happens at report
// assembly, outside the checkpointed verdict, so re-pricing a journal
// does not invalidate it.
//
// Degradation mirrors AnalyzeMulti: errored scenarios are recorded
// (Err and ErrText set) and skipped, cancellation truncates at a
// scenario boundary, and only an all-error sweep fails. Results are
// byte-identical at every worker count and across checkpoint resumes.
func AnalyzeScenarios(ctx context.Context, in Input, basePlan *placement.Plan, specs []ScenarioSpec, econ *Economics) (report *MultiReport, err error) {
	defer robust.Recover("failure.AnalyzeScenarios", &err)
	if err := in.validateBase(basePlan); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, errors.New("failure: no scenarios to analyze")
	}
	if err := econ.Validate(); err != nil {
		return nil, err
	}
	serverIdx := make(map[string]int, len(in.Problem.Servers))
	for i, s := range in.Problem.Servers {
		serverIdx[s.ID] = i
	}
	normalized := make([]ScenarioSpec, len(specs))
	seenName := make(map[string]bool, len(specs))
	for i, s := range specs {
		normalized[i] = s.normalized()
		if err := normalized[i].Validate(serverIdx); err != nil {
			return nil, err
		}
		if seenName[s.Name] {
			return nil, fmt.Errorf("failure: duplicate scenario name %q", s.Name)
		}
		seenName[s.Name] = true
	}

	ctx, span := telemetry.StartSpanCtx(ctx, in.Hooks, "failure.analyze_scenarios",
		telemetry.Int("scenarios", len(specs)),
		telemetry.Int("servers", len(in.Problem.Servers)))
	defer span.End()
	cascadeC := telemetry.OrNop(in.Hooks).Counter("failure_cascade_failures_total")

	jobs := make([]job, len(normalized))
	failed := make([][]int, len(normalized))
	for i, spec := range normalized {
		hash := checkpoint.NewHasher()
		spec.fold(hash)
		jobs[i] = job{id: spec.Name, key: hash.Sum()}
		for _, id := range spec.Servers {
			failed[i] = append(failed[i], serverIdx[id])
		}
	}
	eval := func(ctx, parent context.Context, i int) (MultiScenario, error) {
		return evaluate(ctx, parent, in, basePlan, jobs[i].id, failed[i], normalized[i])
	}
	countCascade := func(s *MultiScenario) { cascadeC.Add(int64(len(s.CascadeAdded))) }
	// Economics are deliberately not part of the checkpointed record —
	// they are applied below, so re-pricing never invalidates a journal.
	scenarios, errored, spare, truncated, err := sweep(ctx, in, unitSpec, jobs, eval, countCascade)
	span.SetAttr(
		telemetry.Int("scenarios", len(scenarios)),
		telemetry.Int("errors", errored),
		telemetry.Bool("spares_needed", spare),
		telemetry.Bool("truncated", truncated))
	if err != nil {
		return nil, err
	}
	report = &MultiReport{K: 0, Scenarios: scenarios, SparesNeeded: spare, Truncated: truncated}
	for i := range report.Scenarios {
		scenario := &report.Scenarios[i]
		// Price the verdict. Inconclusive scenarios score as infeasible —
		// the conservative upper bound — but stay excluded from
		// SparesNeeded, matching the other sweeps.
		feasible := scenario.Feasible && scenario.Err == nil
		scenario.Probability = normalized[i].Probability
		scenario.RevenueAtRisk, scenario.AppRisk = ScoreScenario(scenario.AffectedApps, feasible, econ)
		scenario.ExpectedRevenueAtRisk = scenario.Probability * scenario.RevenueAtRisk
		report.TotalExpectedRevenueAtRisk += scenario.ExpectedRevenueAtRisk
	}
	return report, nil
}

// cascadeClosure computes the deterministic overload fixed point: apps
// on failed servers evacuate round-robin (in app order, pool order of
// survivors — the same rule that seeds the re-consolidation search),
// switching to their failure-mode translation; any survivor whose
// slot-wise peak aggregate demand then exceeds capacity * factor fails
// too, and the process repeats. Every round must fail at least one new
// server, so the closure terminates within min(maxRounds, survivors)
// rounds regardless of input. The returned additions are in pool order.
func cascadeClosure(in Input, basePlan *placement.Plan, failed map[int]bool, maxRounds int, factor float64) (added []int, rounds int) {
	p := in.Problem
	down := make(map[int]bool, len(failed))
	for s := range failed {
		down[s] = true
	}
	for rounds = 0; rounds < maxRounds; rounds++ {
		var survivors []int
		for i := range p.Servers {
			if !down[i] {
				survivors = append(survivors, i)
			}
		}
		if len(survivors) == 0 {
			return added, rounds
		}
		// Deterministic evacuation: app index order, survivors in pool
		// order, the same round-robin rule that seeds the re-consolidation
		// search. Residents keep their normal-mode workload; apps from
		// failed servers arrive with their failure-mode one.
		slots := len(p.Apps[0].Workload.CoS1)
		load := make(map[int][]float64, len(survivors))
		for _, s := range survivors {
			load[s] = make([]float64, slots)
		}
		next := 0
		for appIdx, srv := range basePlan.Assignment {
			w, target := p.Apps[appIdx].Workload, srv
			if down[srv] {
				w = in.FailureApps[appIdx].Workload
				target = survivors[next%len(survivors)]
				next++
			}
			agg := load[target]
			for i := 0; i < slots && i < len(w.CoS1); i++ {
				agg[i] += w.CoS1[i] + w.CoS2[i]
			}
		}
		// All overloaded survivors fail simultaneously — membership in the
		// round's casualty set depends only on the round's starting state,
		// never on evaluation order.
		var overloaded []int
		for _, s := range survivors {
			limit := p.Servers[s].Capacity() * factor
			for _, v := range load[s] {
				if v > limit {
					overloaded = append(overloaded, s)
					break
				}
			}
		}
		if len(overloaded) == 0 {
			return added, rounds
		}
		for _, s := range overloaded {
			down[s] = true
		}
		added = append(added, overloaded...)
		sort.Ints(added)
	}
	return added, rounds
}

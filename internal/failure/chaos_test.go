package failure

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ropus/internal/faultinject"
	"ropus/internal/placement"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
)

// basePlanFor evaluates the identity assignment for a three-server
// pool, which the chaos tests start from.
func basePlanFor(t *testing.T, p *placement.Problem) *placement.Plan {
	t.Helper()
	base, err := placement.Evaluate(p, placement.Assignment{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Feasible {
		t.Fatal("base plan should be feasible")
	}
	return base
}

// chaosView flattens one sweep's report for the chaos tables: the
// errored records with Err cleared (ErrText keeps the message), the
// errors Errors() returns, and the verdict counts.
type chaosView struct {
	errored    []any
	errs       []error
	records    int
	infeasible int
	spare      bool
}

// chaosSweep runs one of the three sweeps and flattens its report.
type chaosSweep func(ctx context.Context, in Input, base *placement.Plan) (*chaosView, error)

func chaosAnalyze(ctx context.Context, in Input, base *placement.Plan) (*chaosView, error) {
	r, err := Analyze(ctx, in, base)
	if err != nil {
		return nil, err
	}
	v := &chaosView{errs: r.Errors(), records: len(r.Scenarios), spare: r.SpareNeeded}
	for _, sc := range r.Scenarios {
		if sc.Err != nil {
			sc.Err = nil
			v.errored = append(v.errored, sc)
		} else if !sc.Feasible {
			v.infeasible++
		}
	}
	return v, nil
}

func chaosMultiView(r *MultiReport, err error) (*chaosView, error) {
	if err != nil {
		return nil, err
	}
	v := &chaosView{errs: r.Errors(), records: len(r.Scenarios), spare: r.SparesNeeded}
	for _, sc := range r.Scenarios {
		if sc.Err != nil {
			sc.Err = nil
			v.errored = append(v.errored, sc)
		} else if !sc.Feasible {
			v.infeasible++
		}
	}
	return v, nil
}

func chaosMulti(k int) chaosSweep {
	return func(ctx context.Context, in Input, base *placement.Plan) (*chaosView, error) {
		return chaosMultiView(AnalyzeMulti(ctx, in, base, k))
	}
}

func chaosScenarios(specs []ScenarioSpec) chaosSweep {
	return func(ctx context.Context, in Input, base *placement.Plan) (*chaosView, error) {
		return chaosMultiView(AnalyzeScenarios(ctx, in, base, specs, testEconomics()))
	}
}

// chaosPool is the 3x6-on-10 pool the single and multi chaos cases use.
func chaosPool(t *testing.T) (*placement.Problem, *placement.Plan) {
	t.Helper()
	p := problem([]float64{6, 6, 6}, 3, 10)
	return p, basePlanFor(t, p)
}

// cascadePool is three flat apps of 5 on two 10-CPU servers and one
// 20-CPU server: losing srv-a under overload factor 0.7 pushes srv-b to
// 7.5 > 7, which cascades, and srv-c then absorbs everything.
func cascadePool(t *testing.T) (*placement.Problem, *placement.Plan) {
	t.Helper()
	p := problem([]float64{5, 5, 5}, 3, 10)
	p.Servers[2].CPUs = 20
	return p, basePlanFor(t, p)
}

// chaosSpecs is the named-scenario universe over cascadePool; the
// first spec is the one the table's fault targets.
func chaosSpecs() []ScenarioSpec {
	return []ScenarioSpec{
		{Name: "maint/srv-a", Servers: []string{"srv-a"}, Theta: 0.5, Cascade: true, OverloadFactor: 0.7},
		{Name: "cascade/srv-a", Servers: []string{"srv-a"}, Cascade: true, OverloadFactor: 0.7},
		{Name: "loss/srv-b", Servers: []string{"srv-b"}},
	}
}

// TestChaosScenarioErrorRecorded injects one scenario's fault into each
// sweep: the sweep degrades instead of aborting, and the errored record
// keeps its identity, names its scenario in ErrText, is counted, and
// does not set the spare flag.
func TestChaosScenarioErrorRecorded(t *testing.T) {
	const injected = "faultinject: injected fault at "
	for _, tc := range []struct {
		name     string
		pool     func(*testing.T) (*placement.Problem, *placement.Plan)
		factor   float64
		rule     faultinject.Rule
		sweep    chaosSweep
		records  int
		want     any // the errored record, Err cleared
		cascades int64
	}{
		{
			name: "single", pool: chaosPool, factor: 0.5,
			rule:  faultinject.Rule{Point: "failure.scenario", Key: "srv-b"},
			sweep: chaosAnalyze, records: 3,
			want: Scenario{FailedServer: "srv-b", AffectedApps: []string{"app-b"}, Attempts: 1,
				ErrText: `failure: scenario "srv-b": ` + injected + "failure.scenario[srv-b]"},
		},
		{
			name: "multi k=2", pool: chaosPool, factor: 0.3,
			rule:  faultinject.Rule{Point: "failure.scenario", Key: "srv-a+srv-b"},
			sweep: chaosMulti(2), records: 3,
			want: MultiScenario{FailedServers: []string{"srv-a", "srv-b"}, Attempts: 1,
				ErrText: `failure: scenario "srv-a+srv-b": ` + injected + "failure.scenario[srv-a+srv-b]"},
		},
		{
			name: "named", pool: cascadePool, factor: 0.5,
			rule:  faultinject.Rule{Point: "failure.scenario", Key: "maint/srv-a"},
			sweep: chaosScenarios(chaosSpecs()), records: 3, cascades: 1,
			want: MultiScenario{Name: "maint/srv-a", Theta: 0.5, FailedServers: []string{"srv-a"}, Attempts: 1,
				Probability: 1, AppRisk: []AppRisk{},
				ErrText: `failure: scenario "maint/srv-a": ` + injected + "failure.scenario[maint/srv-a]"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, base := tc.pool(t)
			reg := telemetry.NewRegistry()
			in := Input{
				Problem:     p,
				FailureApps: failureApps(p, tc.factor),
				GA:          ga(),
				Hooks:       telemetry.New(reg, nil),
				Inject:      faultinject.MustScript(1, tc.rule),
			}
			v, err := tc.sweep(context.Background(), in, base)
			if err != nil {
				t.Fatalf("partial failure should not abort the sweep: %v", err)
			}
			if v.records != tc.records {
				t.Fatalf("want all %d scenarios recorded, got %d", tc.records, v.records)
			}
			if len(v.errored) != 1 || !reflect.DeepEqual(v.errored[0], tc.want) {
				t.Errorf("errored records %+v, want exactly %+v", v.errored, tc.want)
			}
			if len(v.errs) != 1 || !errors.Is(v.errs[0], faultinject.ErrInjected) {
				t.Errorf("Errors() = %v, want exactly the injected fault", v.errs)
			}
			if v.infeasible != 0 {
				t.Errorf("%d clean scenarios infeasible, want every one absorbable", v.infeasible)
			}
			if v.spare {
				t.Error("an inconclusive (errored) scenario must not set the spare flag")
			}
			counters := reg.Snapshot().Counters
			if got := counters["failure_scenario_errors_total"]; got != 1 {
				t.Errorf("failure_scenario_errors_total = %d, want 1", got)
			}
			if got := counters["failure_cascade_failures_total"]; got != tc.cascades {
				t.Errorf("failure_cascade_failures_total = %d, want %d", got, tc.cascades)
			}
		})
	}
}

// TestChaosAllScenariosErrorAborts: a sweep in which every scenario
// errors proves nothing, so each of the three returns an error that
// wraps the cause, after counting every errored scenario.
func TestChaosAllScenariosErrorAborts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pool   func(*testing.T) (*placement.Problem, *placement.Plan)
		sweep  chaosSweep
		errors int64
	}{
		{"single", chaosPool, chaosAnalyze, 3},
		{"multi k=2", chaosPool, chaosMulti(2), 3},
		{"named", cascadePool, chaosScenarios(chaosSpecs()), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, base := tc.pool(t)
			reg := telemetry.NewRegistry()
			in := Input{
				Problem:     p,
				FailureApps: failureApps(p, 0.5),
				GA:          ga(),
				Hooks:       telemetry.New(reg, nil),
				Inject: faultinject.MustScript(1,
					faultinject.Rule{Point: "failure.scenario"}), // every scenario
			}
			v, err := tc.sweep(context.Background(), in, base)
			if err == nil {
				t.Fatalf("all-scenarios-errored sweep should fail, got %+v", v)
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("top-level error should wrap the injected cause, got %v", err)
			}
			if got := reg.Snapshot().Counters["failure_scenario_errors_total"]; got != tc.errors {
				t.Errorf("failure_scenario_errors_total = %d, want %d", got, tc.errors)
			}
		})
	}
}

func TestCancelAnalyzePartialReport(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel while the first scenario is being analyzed: the scenario
	// completes (its consolidation degrades to best-so-far) and the
	// sweep truncates at the next boundary.
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.5),
		GA:          ga(),
		Workers:     1, // the completed-count assertion below assumes a serial sweep
		Inject: faultinject.Func(func(point, key string) faultinject.Outcome {
			cancel()
			return faultinject.Outcome{}
		}),
	}
	report, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatalf("cancelled sweep should degrade, got %v", err)
	}
	if !report.Truncated {
		t.Error("cancelled sweep should be flagged Truncated")
	}
	if len(report.Scenarios) != 1 {
		t.Errorf("want the 1 completed scenario, got %d", len(report.Scenarios))
	}
}

func TestCancelAnalyzeDeadline(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: nothing gets analyzed
	in := Input{Problem: p, FailureApps: failureApps(p, 0.5), GA: ga()}
	report, err := Analyze(ctx, in, base)
	if err != nil {
		t.Fatalf("cancelled sweep should degrade, got %v", err)
	}
	if !report.Truncated || len(report.Scenarios) != 0 {
		t.Errorf("want empty truncated report, got truncated=%v scenarios=%d",
			report.Truncated, len(report.Scenarios))
	}
}

// TestChaosAnalyzeMultiScenarioError: an errored combination keeps the
// identity established before the fault. A fault at the sweep's own
// injection point fires before evaluation, so the record carries only
// its failed servers; a fault inside the re-consolidation fires after
// the affected applications are known, so it carries those too.
func TestChaosAnalyzeMultiScenarioError(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
		rule faultinject.Rule
		want MultiScenario // the errored record, Err and ErrText cleared
	}{
		{"k=2 before evaluation", 2,
			faultinject.Rule{Point: "failure.scenario", Key: "srv-a+srv-b"},
			MultiScenario{FailedServers: []string{"srv-a", "srv-b"}, Attempts: 1}},
		{"k=1 before evaluation", 1,
			faultinject.Rule{Point: "failure.scenario", Key: "srv-b"},
			MultiScenario{FailedServers: []string{"srv-b"}, Attempts: 1}},
		{"k=2 during re-consolidation", 2,
			faultinject.Rule{Point: "sim.required_capacity", Nth: 1},
			MultiScenario{FailedServers: []string{"srv-a", "srv-b"}, AffectedApps: []string{"app-a", "app-b"}, Attempts: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, base := chaosPool(t)
			in := Input{
				Problem:     p,
				FailureApps: failureApps(p, 0.3),
				GA:          ga(),
				Workers:     1, // Nth counts hits across the sweep: keep its order fixed
				Inject:      faultinject.MustScript(1, tc.rule),
			}
			report, err := AnalyzeMulti(context.Background(), in, base, tc.k)
			if err != nil {
				t.Fatalf("partial failure should not abort the sweep: %v", err)
			}
			if len(report.Scenarios) != 3 { // C(3,k)
				t.Fatalf("want 3 combinations, got %d", len(report.Scenarios))
			}
			errored := 0
			for _, sc := range report.Scenarios {
				if sc.Err == nil {
					continue
				}
				errored++
				if !errors.Is(sc.Err, faultinject.ErrInjected) {
					t.Errorf("%s: want the injected fault, got %v", sc.Key(), sc.Err)
				}
				if prefix := fmt.Sprintf("failure: scenario %q: ", sc.Key()); !strings.HasPrefix(sc.ErrText, prefix) {
					t.Errorf("ErrText %q does not start with %q", sc.ErrText, prefix)
				}
				sc.Err, sc.ErrText = nil, ""
				if !reflect.DeepEqual(sc, tc.want) {
					t.Errorf("errored record %+v, want %+v", sc, tc.want)
				}
			}
			if errored != 1 {
				t.Errorf("want exactly 1 errored combination, got %d", errored)
			}
		})
	}
}

func TestChaosAnalyzePanicRecovered(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.5),
		GA:          ga(),
		Inject: faultinject.Func(func(point, key string) faultinject.Outcome {
			panic("chaos monkey")
		}),
	}
	// The panic fires inside a scenario's consolidation; the package
	// boundary converts it into an error instead of crashing the caller.
	report, err := Analyze(context.Background(), in, base)
	if err == nil {
		t.Fatalf("want recovered panic error, got %+v", report)
	}
	if !errors.Is(err, robust.ErrPanic) {
		t.Errorf("error should wrap robust.ErrPanic, got %v", err)
	}
}

// TestCompletedPrefix pins how a sweep's report is cut from scenario
// outcomes: a live context keeps every dispatched scenario; under
// cancellation the report stops at the first scenario that observed it,
// dropping one that failed with the cancellation's error and keeping
// one whose search was cut short, and is flagged truncated either way —
// even when every scenario was dispatched.
func TestCompletedPrefix(t *testing.T) {
	live := context.Background()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	full, cut := &placement.Plan{}, &placement.Plan{Truncated: true}
	other := errors.New("solver failed")
	for _, tc := range []struct {
		name       string
		ctx        context.Context
		dispatched int
		errs       []error
		plans      []*placement.Plan
		want       int
		truncated  bool
	}{
		{"live complete", live, 3, make([]error, 3), []*placement.Plan{full, nil, full}, 3, false},
		{"live time budget", live, 3, make([]error, 3), []*placement.Plan{cut, full, full}, 3, false},
		{"cancelled clean", dead, 3, make([]error, 3), []*placement.Plan{full, nil, full}, 3, false},
		{"cancelled dispatch", dead, 1, make([]error, 3), []*placement.Plan{full, nil, nil}, 1, true},
		{"cut search kept", dead, 3, make([]error, 3), []*placement.Plan{full, cut, full}, 2, true},
		{"last search cut", dead, 3, make([]error, 3), []*placement.Plan{full, full, cut}, 3, true},
		{"ctx error dropped", dead, 3, []error{nil, fmt.Errorf("wrapped: %w", context.Canceled), nil}, []*placement.Plan{full, nil, full}, 1, true},
		{"other error kept", dead, 3, []error{other, nil, nil}, []*placement.Plan{nil, full, full}, 3, false},
	} {
		n, truncated := completedPrefix(tc.ctx, tc.dispatched, 3, tc.errs, func(i int) *placement.Plan { return tc.plans[i] })
		if n != tc.want || truncated != tc.truncated {
			t.Errorf("%s: got (%d, %v), want (%d, %v)", tc.name, n, truncated, tc.want, tc.truncated)
		}
	}
}

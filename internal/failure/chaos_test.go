package failure

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ropus/internal/faultinject"
	"ropus/internal/placement"
	"ropus/internal/robust"
)

// basePlanFor evaluates the identity assignment for a 3x6-on-10 pool,
// which both Analyze tests start from.
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

func TestChaosScenarioErrorRecorded(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.5),
		GA:          ga(),
		Inject: faultinject.MustScript(1,
			faultinject.Rule{Point: "failure.scenario", Key: "srv-b"}),
	}
	report, err := Analyze(context.Background(), in, base)
	if err != nil {
		t.Fatalf("partial failure should not abort the sweep: %v", err)
	}
	if len(report.Scenarios) != 3 {
		t.Fatalf("want all 3 scenarios recorded, got %d", len(report.Scenarios))
	}
	for _, sc := range report.Scenarios {
		if sc.FailedServer == "srv-b" {
			if !errors.Is(sc.Err, faultinject.ErrInjected) {
				t.Errorf("srv-b scenario should record the injected error, got %v", sc.Err)
			}
			if sc.Feasible {
				t.Error("errored scenario must not claim feasibility")
			}
		} else if sc.Err != nil {
			t.Errorf("scenario %s unexpectedly errored: %v", sc.FailedServer, sc.Err)
		} else if !sc.Feasible {
			t.Errorf("scenario %s should be absorbable", sc.FailedServer)
		}
	}
	if report.SpareNeeded {
		t.Error("an inconclusive (errored) scenario must not set SpareNeeded")
	}
	if got := report.Errors(); len(got) != 1 {
		t.Errorf("Errors() = %v, want exactly one", got)
	}
}

func TestChaosAllScenariosErrorAborts(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.5),
		GA:          ga(),
		Inject: faultinject.MustScript(1,
			faultinject.Rule{Point: "failure.scenario"}), // every scenario
	}
	report, err := Analyze(context.Background(), in, base)
	if err == nil {
		t.Fatalf("all-scenarios-errored sweep should fail, got %+v", report)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("top-level error should wrap the injected cause, got %v", err)
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

func TestChaosAnalyzeMultiScenarioError(t *testing.T) {
	p := problem([]float64{6, 6, 6}, 3, 10)
	base := basePlanFor(t, p)
	in := Input{
		Problem:     p,
		FailureApps: failureApps(p, 0.3),
		GA:          ga(),
		Inject: faultinject.MustScript(1,
			faultinject.Rule{Point: "failure.scenario", Key: "srv-a+srv-b"}),
	}
	report, err := AnalyzeMulti(context.Background(), in, base, 2)
	if err != nil {
		t.Fatalf("partial failure should not abort the sweep: %v", err)
	}
	if len(report.Scenarios) != 3 { // C(3,2)
		t.Fatalf("want 3 combinations, got %d", len(report.Scenarios))
	}
	errored := 0
	for _, sc := range report.Scenarios {
		if sc.Err != nil {
			errored++
			if sc.Key() != "srv-a+srv-b" {
				t.Errorf("wrong combination errored: %s", sc.Key())
			}
			if len(sc.FailedServers) != 2 {
				t.Errorf("errored scenario lost its identity: %v", sc.FailedServers)
			}
		}
	}
	if errored != 1 {
		t.Errorf("want exactly 1 errored combination, got %d", errored)
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

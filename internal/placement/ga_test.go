package placement

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// smallGA is a fast search configuration for the 7-app bin-packing
// exercises.
func smallGA(seed int64) GAConfig {
	cfg := DefaultGAConfig(seed)
	cfg.MaxGenerations = 30
	cfg.Stagnation = 12
	return cfg
}

// planFingerprint folds everything observable about a plan into a
// comparable string, so "byte-identical" failures print both sides.
func planFingerprint(p *Plan) string {
	if p == nil {
		return "<nil>"
	}
	return fmt.Sprintf("assign=%v score=%b servers=%d required=%b feasible=%v truncated=%v",
		p.Assignment, p.Score, p.ServersUsed, p.RequiredTotal, p.Feasible, p.Truncated)
}

// TestIslandsDeterministicAcrossWorkers pins the search's determinism
// contract: the returned plan is byte-identical per seed no matter how
// many workers evaluate the offspring. GOMAXPROCS sets the evaluation
// fan-out, so varying it varies the worker count. The test keeps the
// name it had when the search could split into islands; the single
// population it checks now is the former one-island case, hence the
// islands=1 subtest.
func TestIslandsDeterministicAcrossWorkers(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	for i := range initial {
		initial[i] = i
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	t.Run("islands=1", func(t *testing.T) {
		var want string
		for _, workers := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(workers)
			p := binPackProblem(sizes, 7, 10)
			plan, err := Consolidate(context.Background(), p, initial, smallGA(11))
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			got := planFingerprint(plan)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("workers=%d diverged:\n got %s\nwant %s", workers, got, want)
			}
		}
	})
}

// TestEvaluateAllErrors: evaluateAll returns plans in assignment order,
// the first failing assignment's error, and ctx's error when
// cancellation stopped it before every assignment ran.
func TestEvaluateAllErrors(t *testing.T) {
	p := binPackProblem([]float64{2, 3, 4}, 3, 10)
	ev := newEvaluator(p)
	good := Assignment{0, 1, 2}
	plans, err := evaluateAll(context.Background(), ev, []Assignment{good, {0, 0, 0}, good})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 || plans[0].ServersUsed != 3 || plans[1].ServersUsed != 1 || plans[2].ServersUsed != 3 {
		t.Fatalf("plans out of order: %v", plans)
	}

	// Out-of-range servers make evaluate fail; the earlier bad index wins.
	if _, err := evaluateAll(context.Background(), ev, []Assignment{good, {0, 9, 0}, {7, 0, 0}}); err == nil {
		t.Fatal("invalid assignment evaluated")
	} else if !strings.Contains(err.Error(), "9") {
		t.Errorf("error %q should name the first bad assignment's server 9", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := evaluateAll(ctx, ev, []Assignment{good, good}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled evaluateAll: got %v, want context.Canceled", err)
	}
}

// TestConsolidateKeepsGreedyWarmStart: the greedy packings seed the
// population and elitism keeps the best member, so the search never
// returns worse than the warm start (3 servers for this perfect
// packing), even from an all-on-one-server initial assignment.
func TestConsolidateKeepsGreedyWarmStart(t *testing.T) {
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	p := binPackProblem(sizes, 7, 10)
	plan, err := Consolidate(context.Background(), p, initial, smallGA(3))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("search returned infeasible plan")
	}
	if plan.ServersUsed > 3 {
		t.Errorf("ServersUsed = %d, want <= 3 (the greedy warm start)", plan.ServersUsed)
	}
	if err := plan.Assignment.Validate(p); err != nil {
		t.Errorf("returned assignment invalid: %v", err)
	}
}

package placement

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ropus/internal/qos"
	"ropus/internal/telemetry"
)

// groupByServer inverts an assignment into per-server ascending
// app-index groups through the evaluator's counting sort.
func groupByServer(a Assignment, servers int) [][]int {
	var g grouping
	g.build(a, servers)
	groups := make([][]int, servers)
	for s := range groups {
		groups[s] = g.group(s)
	}
	return groups
}

// TestIngestionBoundaryRejectsBadTraces pins where traces are validated
// now that sim trusts checked workloads: a NaN, +Inf or negative slot in
// an app's primary or extra-attribute trace is rejected by every entry
// point with sim's validation error before any search runs.
func TestIngestionBoundaryRejectsBadTraces(t *testing.T) {
	const badApp, badSlot = 2, 3
	values := map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "negative": -1}
	for name, v := range values {
		for _, where := range []string{"primary", "extra"} {
			t.Run(name+"/"+where, func(t *testing.T) {
				apps := make([]App, 6)
				for i := range apps {
					apps[i] = memApp("app-"+string(rune('a'+i)), 2, 1, 28)
				}
				bad := apps[badApp].Workload
				if where == "extra" {
					bad = apps[badApp].Extra[AttrMemory]
				}
				bad.CoS2[badSlot] = v
				reg := telemetry.NewRegistry()
				p := memProblem(apps, len(apps), 8, 8)
				p.Hooks = telemetry.New(reg, nil)
				initial, err := OneAppPerServer(p)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for entry, run := range map[string]func() error{
					"Consolidate":        func() error { _, err := Consolidate(ctx, p, initial, smallGA(1)); return err },
					"FirstFitDecreasing": func() error { _, err := FirstFitDecreasing(ctx, p); return err },
					"BestFitDecreasing":  func() error { _, err := BestFitDecreasing(ctx, p); return err },
					"Evaluate":           func() error { _, err := Evaluate(p, initial); return err },
					"ConsolidateHierarchical": func() error {
						_, err := ConsolidateHierarchical(ctx, p, initial, smallGA(1), HierConfig{MaxApps: 3})
						return err
					},
				} {
					err := run()
					if err == nil || !strings.Contains(err.Error(), `sim: workload "app-c" has an invalid allocation at slot 3`) {
						t.Errorf("%s: error = %v, want sim's slot-3 validation error", entry, err)
					}
					if where == "extra" && err != nil && !strings.Contains(err.Error(), `attribute "memory"`) {
						t.Errorf("%s: error %q should name the attribute", entry, err)
					}
				}
				if n := reg.Counter("sim_searches_total").Value(); n != 0 {
					t.Errorf("%d searches ran on a problem with a bad trace", n)
				}
			})
		}
	}
}

// TestConsolidateUsagesMatchEvaluate: the GA keeps score-only plans, so
// the usages of the plan Consolidate returns are filled in at the end;
// they must be exactly what Evaluate reports for the same assignment.
func TestConsolidateUsagesMatchEvaluate(t *testing.T) {
	apps := make([]App, 7)
	for i, size := range []float64{6, 6, 4, 4, 3, 3, 2} {
		apps[i] = memApp("app-"+string(rune('a'+i)), size, size/2, 28)
	}
	p := memProblem(apps, len(apps), 10, 10)
	plan, err := Consolidate(context.Background(), p, make(Assignment, len(apps)), smallGA(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(p, plan.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if planFingerprint(plan) != planFingerprint(want) {
		t.Errorf("plan %s, Evaluate %s", planFingerprint(plan), planFingerprint(want))
	}
	if !reflect.DeepEqual(plan.Usages, want.Usages) {
		t.Errorf("Consolidate usages differ from Evaluate's:\n got %+v\nwant %+v", plan.Usages, want.Usages)
	}
}

// TestConsolidateBytesPerSearch is the bytes gate for the consolidation
// path: on long traces, the bytes a Consolidate allocates per capacity
// search must stay under half of one aggregate (two slot-long float64
// sums). Building a fresh aggregate per search, or keeping per-server
// usages for every GA offspring, multiplies this several times over.
func TestConsolidateBytesPerSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate is timing-adjacent")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers, so bytes are not the code's")
	}
	prev := runtime.GOMAXPROCS(1) // keep goroutine scratch out of the count
	defer runtime.GOMAXPROCS(prev)
	const slots = 2016
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	apps := make([]App, len(sizes))
	for i, s := range sizes {
		apps[i] = flatApp("app-"+string(rune('a'+i)), 0, s, slots)
	}
	reg := telemetry.NewRegistry()
	p := &Problem{
		Apps:          apps,
		Servers:       servers(len(sizes), 10),
		Commitment:    qos.PoolCommitment{Theta: 0.9, Deadline: time.Hour},
		SlotsPerDay:   96,
		DeadlineSlots: 2,
		Tolerance:     0.01,
		Hooks:         telemetry.New(reg, nil),
	}
	initial := make(Assignment, len(sizes))
	cfg := smallGA(11)
	run := func() {
		if _, err := Consolidate(context.Background(), p, initial, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	searches := reg.Counter("sim_searches_total")
	var before, after runtime.MemStats
	startSearches := searches.Value()
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	n := searches.Value() - startSearches
	if n == 0 {
		t.Fatal("no searches counted")
	}
	perSearch := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	const budget = slots * 16 / 2
	t.Logf("searches=%d bytes/search=%.0f budget=%d", n, perSearch, budget)
	if perSearch > budget {
		t.Errorf("Consolidate allocates %.0f B per search, budget %d", perSearch, budget)
	}
}

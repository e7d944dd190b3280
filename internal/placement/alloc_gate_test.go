package placement

import (
	"context"
	"runtime"
	"testing"
)

// TestConsolidateAllocBudget is the allocation gate for the
// consolidation path: a small search must stay within a fixed
// allocation budget. The ceiling sits ~2.5x above the measured count
// (~3.4k), so GA trajectory noise passes but a per-search aggregate, a
// per-offspring usage table or an accidental per-slot allocation fails.
func TestConsolidateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate is timing-adjacent")
	}
	prev := runtime.GOMAXPROCS(1) // keep goroutine scratch out of the count
	defer runtime.GOMAXPROCS(prev)
	sizes := []float64{6, 6, 4, 4, 3, 3, 2}
	initial := make(Assignment, len(sizes))
	const budget = 9_000.0
	p := binPackProblem(sizes, 7, 10)
	cfg := smallGA(11)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Consolidate(context.Background(), p, initial, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs=%v", allocs)
	if allocs > budget {
		t.Errorf("Consolidate allocates %.0f objects per run, budget %.0f", allocs, budget)
	}
}

package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
)

// checkedGroup is one group of the pooled-path parity sequence: its
// workloads and the day length its replays group θ by.
type checkedGroup struct {
	ws          []Workload
	slotsPerDay int
}

// randomWorkloads builds n seeded workloads of the given slot count.
func randomWorkloads(rng *rand.Rand, n, slots int) []Workload {
	ws := make([]Workload, n)
	for k := range ws {
		c1 := make([]float64, slots)
		c2 := make([]float64, slots)
		for i := range c1 {
			c1[i] = rng.Float64() * 0.5
			c2[i] = rng.Float64() * 2
		}
		ws[k] = Workload{AppID: fmt.Sprintf("w%d", k), CoS1: c1, CoS2: c2}
	}
	return ws
}

// paritySequence alternates group sizes and slot counts, so a pooled
// aggregate is reused at 8064 slots, shrunk to 168 and to 1, and grown
// back, each time after holding other sums.
func paritySequence() []checkedGroup {
	rng := rand.New(rand.NewSource(14))
	return []checkedGroup{
		{randomWorkloads(rng, 5, 8064), 288},
		{randomWorkloads(rng, 3, 168), 24},
		{randomWorkloads(rng, 2, 8064), 288},
		{randomWorkloads(rng, 1, 1), 1},
		{randomWorkloads(rng, 7, 8064), 288},
	}
}

func checkAll(t *testing.T, ws []Workload) []Checked {
	t.Helper()
	group := make([]Checked, len(ws))
	for i, w := range ws {
		c, err := Check(w)
		if err != nil {
			t.Fatal(err)
		}
		group[i] = c
	}
	return group
}

func parityConfig(slotsPerDay int) Config {
	return Config{
		SlotsPerDay:   slotsPerDay,
		DeadlineSlots: 3,
		Commitment:    qos.PoolCommitment{Theta: 0.9},
	}
}

// freshSearch is the reference: a new aggregate built by NewAggregate.
func freshSearch(t *testing.T, g checkedGroup, cfg Config, limit float64) (string, float64) {
	t.Helper()
	agg, err := NewAggregate(g.ws)
	if err != nil {
		t.Fatal(err)
	}
	out, err := agg.Search(context.Background(), cfg, limit, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", out), agg.TotalPeak()
}

// TestSearchCheckedParity: reusing the pooled aggregate across groups of
// different sizes and slot counts gives the bit-identical outcome and
// TotalPeak a fresh NewAggregate does, sequentially and from concurrent
// goroutines (run it under -race).
func TestSearchCheckedParity(t *testing.T) {
	seq := paritySequence()
	type want struct {
		out  string
		peak float64
	}
	wants := make([]want, len(seq))
	groups := make([][]Checked, len(seq))
	for i, g := range seq {
		wants[i].out, wants[i].peak = freshSearch(t, g, parityConfig(g.slotsPerDay), 64)
		groups[i] = checkAll(t, g.ws)
	}
	run := func() error {
		for round := 0; round < 2; round++ {
			for i, g := range seq {
				out, peak, err := SearchChecked(context.Background(), groups[i], parityConfig(g.slotsPerDay), 64, 0.05)
				if err != nil {
					return err
				}
				if got := fmt.Sprintf("%+v", out); got != wants[i].out || math.Float64bits(peak) != math.Float64bits(wants[i].peak) {
					return fmt.Errorf("group %d (round %d): pooled %s peak %b, fresh %s peak %b",
						i, round, got, peak, wants[i].out, wants[i].peak)
				}
			}
		}
		return nil
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAggregateSumReuse drives one aggregate's buffers through the same
// size sequence and compares every sum with a fresh build.
func TestAggregateSumReuse(t *testing.T) {
	var a Aggregate
	for i, g := range paritySequence() {
		fresh, err := NewAggregate(g.ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.sum(checkAll(t, g.ws)); err != nil {
			t.Fatal(err)
		}
		if a.Slots() != fresh.Slots() || a.CoS1Peak() != fresh.CoS1Peak() || a.TotalPeak() != fresh.TotalPeak() {
			t.Fatalf("group %d: reused aggregate %d slots, peaks %v/%v; fresh %d, %v/%v",
				i, a.Slots(), a.CoS1Peak(), a.TotalPeak(), fresh.Slots(), fresh.CoS1Peak(), fresh.TotalPeak())
		}
		for s := range fresh.cos1 {
			if math.Float64bits(a.cos1[s]) != math.Float64bits(fresh.cos1[s]) ||
				math.Float64bits(a.cos2[s]) != math.Float64bits(fresh.cos2[s]) {
				t.Fatalf("group %d slot %d: reused sums differ from a fresh build", i, s)
			}
		}
	}
}

// TestSearchCheckedCorruption: an injected sim.replay corruption still
// surfaces the NaN-statistics error through the pooled path, the same
// error a fresh aggregate's search returns.
func TestSearchCheckedCorruption(t *testing.T) {
	g := paritySequence()[1]
	cfg := func() Config {
		c := parityConfig(g.slotsPerDay)
		c.Inject = faultinject.MustScript(1, faultinject.Rule{Point: "sim.replay", Corrupt: true})
		return c
	}
	agg, err := NewAggregate(g.ws)
	if err != nil {
		t.Fatal(err)
	}
	_, freshErr := agg.Search(context.Background(), cfg(), 64, 0.05)
	if freshErr == nil || !strings.Contains(freshErr.Error(), "NaN statistics") {
		t.Fatalf("fresh search error = %v, want the NaN-statistics error", freshErr)
	}
	_, _, err = SearchChecked(context.Background(), checkAll(t, g.ws), cfg(), 64, 0.05)
	if err == nil || err.Error() != freshErr.Error() {
		t.Fatalf("pooled search error = %v, want %v", err, freshErr)
	}
}

// TestCheckRejects: Check rejects what Validate rejects, and the pooled
// search rejects groups Check did not make or that are misaligned.
func TestCheckRejects(t *testing.T) {
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "negative": -1} {
		w := Workload{AppID: "a", CoS1: []float64{1, 1}, CoS2: []float64{1, v}}
		if _, err := Check(w); err == nil || !strings.Contains(err.Error(), "invalid allocation at slot 1") {
			t.Errorf("%s: Check error = %v, want the slot-1 validation error", name, err)
		}
	}
	cfg := parityConfig(1)
	ctx := context.Background()
	if _, _, err := SearchChecked(ctx, nil, cfg, 4, 0.05); err == nil {
		t.Error("empty group searched")
	}
	if _, _, err := SearchChecked(ctx, []Checked{{}}, cfg, 4, 0.05); err == nil {
		t.Error("zero Checked searched")
	}
	short, long := checkAll(t, randomWorkloads(rand.New(rand.NewSource(1)), 1, 2))[0], checkAll(t, randomWorkloads(rand.New(rand.NewSource(2)), 1, 3))[0]
	if _, _, err := SearchChecked(ctx, []Checked{short, long}, cfg, 4, 0.05); err == nil || !strings.Contains(err.Error(), "has 3 slots, want 2") {
		t.Errorf("misaligned group: error = %v", err)
	}
}

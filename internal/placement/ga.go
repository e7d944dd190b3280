package placement

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ropus/internal/parallel"
	"ropus/internal/robust"
	"ropus/internal/telemetry"
)

// ErrNoFeasible is returned by Consolidate when no assignment satisfying
// the commitments was found; callers (notably the failure planner) match
// it with errors.Is to distinguish "does not fit" from invalid input.
var ErrNoFeasible = errors.New("placement: no feasible assignment found")

// GAConfig tunes the genetic search (paper Figure 5). The zero value is
// not usable; start from DefaultGAConfig.
type GAConfig struct {
	// PopulationSize is the number of assignments per generation.
	PopulationSize int
	// MaxGenerations bounds the search.
	MaxGenerations int
	// Stagnation stops the search after this many generations without
	// score improvement ("little improvement" in Figure 5).
	Stagnation int
	// Elite is the number of best assignments copied unchanged into the
	// next generation.
	Elite int
	// TournamentK is the tournament size for parent selection.
	TournamentK int
	// MutationRate is the per-offspring probability of applying a
	// mutation (either emptying a server or moving a single app).
	MutationRate float64
	// SeedGreedy adds the first-fit-decreasing and best-fit-decreasing
	// packings to the initial population as warm starts; the search can
	// only improve on them.
	SeedGreedy bool
	// Seed makes the search deterministic.
	Seed int64
	// TimeBudget bounds the search's wall-clock time; when it elapses the
	// search stops at the next generation boundary and returns its best
	// plan so far, flagged Truncated. Zero means no budget.
	TimeBudget time.Duration
}

// DefaultGAConfig returns the configuration used for the case study.
func DefaultGAConfig(seed int64) GAConfig {
	return GAConfig{
		PopulationSize: 32,
		MaxGenerations: 250,
		Stagnation:     40,
		Elite:          2,
		TournamentK:    3,
		MutationRate:   0.9,
		SeedGreedy:     true,
		Seed:           seed,
	}
}

// Validate checks the GA parameters.
func (c GAConfig) Validate() error {
	switch {
	case c.PopulationSize < 2:
		return fmt.Errorf("placement: PopulationSize %d < 2", c.PopulationSize)
	case c.MaxGenerations < 1:
		return fmt.Errorf("placement: MaxGenerations %d < 1", c.MaxGenerations)
	case c.Stagnation < 1:
		return fmt.Errorf("placement: Stagnation %d < 1", c.Stagnation)
	case c.Elite < 0 || c.Elite >= c.PopulationSize:
		return fmt.Errorf("placement: Elite %d outside [0,%d)", c.Elite, c.PopulationSize)
	case c.TournamentK < 1:
		return fmt.Errorf("placement: TournamentK %d < 1", c.TournamentK)
	case c.TournamentK > c.PopulationSize:
		return fmt.Errorf("placement: TournamentK %d > PopulationSize %d", c.TournamentK, c.PopulationSize)
	// Negated-range form so that a NaN rate is rejected too.
	case !(c.MutationRate >= 0 && c.MutationRate <= 1):
		return fmt.Errorf("placement: MutationRate %v outside [0,1]", c.MutationRate)
	case c.TimeBudget < 0:
		return fmt.Errorf("placement: TimeBudget %v < 0", c.TimeBudget)
	}
	return nil
}

// Consolidate runs the genetic search from the given initial assignment
// and returns the best feasible plan found. It returns an error if no
// feasible assignment is discovered (including the initial one).
//
// Cancellation degrades gracefully: ctx is checked at every generation
// boundary (and by the parallel offspring evaluations), and a cancelled
// or over-budget search returns its best feasible plan so far with
// Plan.Truncated set and a nil error. Only when cancellation strikes
// before any feasible plan exists does Consolidate return an error. The
// initial population is always evaluated to completion (detached from
// ctx's cancellation) so that a given seed yields the same best-so-far
// plan no matter when the cancel lands.
//
// The search's RNG consumption order is pinned by the deterministic
// golden tests and must not change.
func Consolidate(ctx context.Context, p *Problem, initial Assignment, cfg GAConfig) (plan *Plan, err error) {
	defer robust.Recover("placement.Consolidate", &err)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := initial.Validate(p); err != nil {
		return nil, err
	}
	h := telemetry.OrNop(p.Hooks)
	ctx, span := telemetry.StartSpanCtx(ctx, p.Hooks, "placement.consolidate",
		telemetry.Int("apps", len(p.Apps)),
		telemetry.Int("servers", len(p.Servers)),
		telemetry.Int("population", cfg.PopulationSize))
	defer span.End()
	var (
		generations = h.Counter("ga_generations_total")
		crossovers  = h.Counter("ga_crossovers_total")
		mutations   = h.Counter("ga_mutations_total")
		offspringC  = h.Counter("ga_offspring_evaluated_total")
		truncatedC  = h.Counter("ga_truncated_total")
		bestScore   = h.Gauge("ga_best_score")
		meanScore   = h.Gauge("ga_mean_score")
		bestServers = h.Gauge("ga_best_feasible_servers")
		staleGauge  = h.Gauge("ga_stagnation_generations")
		genSeconds  = h.Histogram("ga_generation_seconds", nil)
	)

	rng := rand.New(rand.NewSource(cfg.Seed))
	ev := newEvaluator(p)

	var deadline time.Time
	if cfg.TimeBudget > 0 {
		deadline = time.Now().Add(cfg.TimeBudget)
	}
	// The initial population is evaluated detached from cancellation:
	// it is the floor every truncated search can still return, and
	// keeping it complete makes best-so-far deterministic per seed.
	seedCtx := context.WithoutCancel(ctx)

	// Seed the population with the initial assignment, optional greedy
	// packings, and mutated copies of the initial assignment.
	// Members are score-only plans (no Usages): selection never reads
	// them, and the returned plan is re-evaluated in full at the end.
	pop := make([]*Plan, 0, cfg.PopulationSize)
	first, err := ev.score(seedCtx, initial.Clone())
	if err != nil {
		return nil, err
	}
	pop = append(pop, first)
	if cfg.SeedGreedy {
		for _, pick := range []func([]candidate) candidate{pickFirstFit, pickBestFit} {
			a, err := greedy(seedCtx, ev, pick)
			if err != nil {
				continue // a greedy failure just means no warm start
			}
			seeded, err := ev.score(seedCtx, a)
			if err != nil {
				return nil, err
			}
			pop = append(pop, seeded)
		}
	}
	for len(pop) < cfg.PopulationSize {
		a := initial.Clone()
		mutate(a, p, rng)
		plan, err := ev.score(seedCtx, a)
		if err != nil {
			return nil, err
		}
		pop = append(pop, plan)
	}
	sortPopulation(pop)

	best := bestFeasible(pop)
	stale := 0
	ran := 0
	truncated := false
	for gen := 0; gen < cfg.MaxGenerations && stale < cfg.Stagnation; gen++ {
		// Cheap per-generation degradation check: a cancelled context or
		// an exhausted time budget stops the search at this boundary with
		// whatever has been found so far.
		if ctx.Err() != nil || (!deadline.IsZero() && !time.Now().Before(deadline)) {
			truncated = true
			break
		}
		genStart := time.Now()
		next := make([]*Plan, 0, cfg.PopulationSize)
		for i := 0; i < cfg.Elite && i < len(pop); i++ {
			next = append(next, pop[i])
		}
		// Breed serially (the RNG is not safe for concurrent use), then
		// evaluate the offspring in parallel: the simulator replays are
		// the expensive part and are independent of each other.
		offspring := make([]Assignment, 0, cfg.PopulationSize-len(next))
		for len(next)+len(offspring) < cfg.PopulationSize {
			a := crossover(tournament(pop, cfg.TournamentK, rng).Assignment,
				tournament(pop, cfg.TournamentK, rng).Assignment, rng)
			crossovers.Inc()
			if rng.Float64() < cfg.MutationRate {
				mutate(a, p, rng)
				mutations.Inc()
			}
			offspring = append(offspring, a)
		}
		plans, err := evaluateAll(ctx, ev, offspring)
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation mid-generation: discard the partial
				// generation and fall back to the best completed one.
				truncated = true
				break
			}
			return nil, err
		}
		pop = append(next, plans...)
		sortPopulation(pop)

		if cand := bestFeasible(pop); cand != nil && (best == nil || cand.Score > best.Score+1e-12) {
			best = cand
			stale = 0
		} else {
			stale++
		}
		ran++

		generations.Inc()
		offspringC.Add(int64(len(plans)))
		staleGauge.Set(float64(stale))
		meanScore.Set(meanPlanScore(pop))
		if best != nil {
			bestScore.Set(best.Score)
			bestServers.Set(float64(best.ServersUsed))
		}
		genSeconds.Observe(time.Since(genStart).Seconds())
	}
	span.SetAttr(telemetry.Int("generations", ran),
		telemetry.Bool("feasible", best != nil),
		telemetry.Bool("truncated", truncated))
	if best == nil {
		if truncated {
			cause := ctx.Err()
			if cause == nil {
				cause = context.DeadlineExceeded // time budget elapsed
			}
			return nil, fmt.Errorf("placement: consolidation cancelled after %d generations with no feasible plan: %w", ran, cause)
		}
		return nil, fmt.Errorf("%w after %d generations", ErrNoFeasible, cfg.MaxGenerations)
	}
	// Fill in the usages of the plan returned: every (server, group) of
	// best is already in the evaluator's cache, so this runs no search.
	full, err := ev.evaluate(seedCtx, best.Assignment)
	if err != nil {
		return nil, err
	}
	if truncated {
		truncatedC.Inc()
		full.Truncated = true
	}
	span.SetAttr(telemetry.Int("servers_used", full.ServersUsed), telemetry.Float("score", full.Score))
	return full, nil
}

// meanPlanScore returns the population's mean consolidation score.
func meanPlanScore(pop []*Plan) float64 {
	if len(pop) == 0 {
		return 0
	}
	sum := 0.0
	for _, plan := range pop {
		sum += plan.Score
	}
	return sum / float64(len(pop))
}

// evaluateAll scores assignments on the shared worker pool (one
// worker per GOMAXPROCS), preserving order. The evaluator's cache is
// shared and thread-safe, so duplicate groupings are still computed only
// ~once, and because every evaluation is a pure content-keyed function
// the results are identical at any worker count. The plans take
// ownership of the assignments and carry no Usages. It returns the first
// error in assignment order, or ctx's error when cancellation stopped
// dispatch before every assignment ran.
func evaluateAll(ctx context.Context, ev *evaluator, assignments []Assignment) ([]*Plan, error) {
	plans := make([]*Plan, len(assignments))
	errs := make([]error, len(assignments))
	done := parallel.ForEach(ctx, 0, len(assignments), func(i int) {
		plans[i], errs[i] = ev.score(ctx, assignments[i])
	})
	for _, err := range errs[:done] {
		if err != nil {
			return nil, err
		}
	}
	if done < len(assignments) {
		return nil, ctx.Err()
	}
	return plans, nil
}

// sortPopulation orders plans best-score-first, breaking ties in favour
// of feasible plans and fewer servers.
func sortPopulation(pop []*Plan) {
	sort.SliceStable(pop, func(i, j int) bool {
		if pop[i].Feasible != pop[j].Feasible {
			return pop[i].Feasible
		}
		if pop[i].Score != pop[j].Score {
			return pop[i].Score > pop[j].Score
		}
		return pop[i].ServersUsed < pop[j].ServersUsed
	})
}

// bestFeasible returns the best feasible plan in a sorted population.
func bestFeasible(pop []*Plan) *Plan {
	for _, plan := range pop {
		if plan.Feasible {
			return plan
		}
	}
	return nil
}

// tournament picks the best of k random population members.
func tournament(pop []*Plan, k int, rng *rand.Rand) *Plan {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		if cand := pop[rng.Intn(len(pop))]; better(cand, best) {
			best = cand
		}
	}
	return best
}

// better orders two plans the same way as sortPopulation.
func better(a, b *Plan) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	return a.Score > b.Score
}

// crossover mates two assignments: each application inherits its server
// from one parent at random (the paper's "straightforward" cross-over).
func crossover(a, b Assignment, rng *rand.Rand) Assignment {
	child := make(Assignment, len(a))
	for i := range child {
		if rng.Intn(2) == 0 {
			child[i] = a[i]
		} else {
			child[i] = b[i]
		}
	}
	return child
}

// mutate perturbs an assignment. Most of the time it empties one used
// server, migrating its applications to other used servers, so the step
// tends to reduce the number of servers in use by one (per the paper);
// the rest of the time it moves a single application, giving the search
// a fine-grained repair move for nearly-feasible packings.
func mutate(a Assignment, p *Problem, rng *rand.Rand) {
	if rng.Float64() < 0.4 {
		moveOneApp(a, p, rng)
		return
	}
	emptyOneServer(a, p, rng)
}

// serverCounts returns how many applications each server hosts.
func serverCounts(a Assignment, servers int) []int {
	counts := make([]int, servers)
	for _, s := range a {
		counts[s]++
	}
	return counts
}

// moveOneApp reassigns one random application to another server that is
// currently in use (or any server when only one is used).
func moveOneApp(a Assignment, p *Problem, rng *rand.Rand) {
	if len(a) == 0 {
		return
	}
	app := rng.Intn(len(a))
	var used []int
	for s, n := range serverCounts(a, len(p.Servers)) {
		if n > 0 && s != a[app] {
			used = append(used, s)
		}
	}
	if len(used) == 0 {
		a[app] = rng.Intn(len(p.Servers))
		return
	}
	a[app] = used[rng.Intn(len(used))]
}

// emptyOneServer migrates every application off one donor server.
func emptyOneServer(a Assignment, p *Problem, rng *rand.Rand) {
	counts := serverCounts(a, len(p.Servers))
	var used []int
	for s, n := range counts {
		if n > 0 {
			used = append(used, s)
		}
	}
	if len(used) < 2 {
		// A single used server: migrate one random app to a random
		// server to keep the search moving.
		if len(a) > 1 {
			a[rng.Intn(len(a))] = rng.Intn(len(p.Servers))
		}
		return
	}
	// Weight donors by how lightly loaded they are (few apps => likely
	// donor), a cheap stand-in for 1 - f(U) that needs no simulation.
	weights := make([]float64, len(used))
	total := 0.0
	for i, s := range used {
		w := 1 / float64(counts[s])
		weights[i] = w
		total += w
	}
	r := rng.Float64() * total
	donor := used[len(used)-1]
	for i, w := range weights {
		if r < w {
			donor = used[i]
			break
		}
		r -= w
	}
	// Migrate every app on the donor, in index order, to another used
	// server. Moved apps never land on the donor, so the scan sees
	// exactly the donor's original apps.
	for app := range a {
		if a[app] != donor {
			continue
		}
		dest := donor
		for dest == donor {
			dest = used[rng.Intn(len(used))]
		}
		a[app] = dest
	}
}

// Package placement implements the optimizing-search component of the
// workload placement service (paper section VI-B, Figure 5).
//
// A consolidation exercise assigns application workloads (already
// translated into per-CoS allocation traces) to servers so that the
// resource access QoS commitments hold on every server while using as
// few servers as possible. Each candidate assignment is scored with the
// paper's objective:
//
//	+1            for every unused server,
//	f(U) = U^(2Z) for a feasible server with required capacity R,
//	              utilization U = R/L and Z CPUs,
//	-N            for an overbooked server hosting N applications.
//
// A genetic algorithm (ga.go) searches assignments; greedy first-fit-
// decreasing and best-fit-decreasing baselines (greedy.go) provide the
// comparison the paper mentions.
package placement

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ropus/internal/faultinject"
	"ropus/internal/qos"
	"ropus/internal/sim"
	"ropus/internal/telemetry"
)

// DefaultTolerance is the binary-search tolerance, in CPUs, used for
// required-capacity computations when the Problem does not override it.
const DefaultTolerance = 0.05

// ScoreModel selects the per-server value function of the consolidation
// objective. The zero value is the paper's model, so existing Problems
// keep their behaviour.
type ScoreModel int

const (
	// ScorePaper is the paper's f(U) = U^(2Z): the squared term
	// exaggerates high utilizations and the Z term demands that servers
	// with more CPUs run hotter (motivated by the open-network response
	// time estimate 1/(1-U^Z)).
	ScorePaper ScoreModel = iota
	// ScoreLinear uses f(U) = U, an ablation baseline that values all
	// utilization improvements equally and ignores the CPU count.
	ScoreLinear
)

// String implements fmt.Stringer.
func (m ScoreModel) String() string {
	switch m {
	case ScorePaper:
		return "paper"
	case ScoreLinear:
		return "linear"
	default:
		return fmt.Sprintf("ScoreModel(%d)", int(m))
	}
}

// Server describes one resource in the pool.
type Server struct {
	// ID names the server.
	ID string
	// CPUs is Z, the number of CPUs; the score function rewards higher
	// utilization on servers with more CPUs.
	CPUs int
	// CPUCapacity is the capacity of a single CPU in demand units;
	// normally 1.0.
	CPUCapacity float64
	// Extra holds the server's capacity for each additional attribute
	// used by the applications (memory, disk I/O, ...); may be nil when
	// only CPU is managed.
	Extra map[Attribute]float64
}

// Capacity returns the server's total capacity L.
func (s Server) Capacity() float64 { return float64(s.CPUs) * s.CPUCapacity }

// Validate checks the server parameters.
func (s Server) Validate() error {
	if s.ID == "" {
		return errors.New("placement: server needs an ID")
	}
	if s.CPUs <= 0 {
		return fmt.Errorf("placement: server %q needs positive CPUs, got %d", s.ID, s.CPUs)
	}
	if s.CPUCapacity <= 0 || math.IsNaN(s.CPUCapacity) || math.IsInf(s.CPUCapacity, 0) {
		return fmt.Errorf("placement: server %q has bad CPUCapacity %v", s.ID, s.CPUCapacity)
	}
	return nil
}

// App is an application workload to place: its translated per-CoS
// allocation traces for the primary (CPU) attribute, plus optional
// additional capacity attributes (see attributes.go).
type App struct {
	ID       string
	Workload sim.Workload
	// Extra holds per-attribute allocation traces for additional
	// capacity attributes (memory, disk I/O, ...); may be nil.
	Extra map[Attribute]sim.Workload
}

// Problem is a consolidation exercise: which servers may host which
// translated application workloads under which pool commitment.
type Problem struct {
	Apps    []App
	Servers []Server
	// Commitment is the CoS2 resource access commitment each server
	// must satisfy.
	Commitment qos.PoolCommitment
	// SlotsPerDay is T for the θ statistic.
	SlotsPerDay int
	// DeadlineSlots is the commitment deadline in slots.
	DeadlineSlots int
	// Tolerance for required-capacity bisection; DefaultTolerance if 0.
	Tolerance float64
	// Score selects the per-server value function; the zero value is
	// the paper's U^(2Z) model.
	Score ScoreModel
	// Hooks receives search and simulation telemetry (GA generation
	// progress, evaluator cache efficiency, bisection probes); nil
	// disables it.
	Hooks telemetry.Hooks
	// Inject is the test-only fault injector forwarded to the simulator
	// (points "sim.required_capacity" and "sim.replay", keyed by server
	// ID); nil (the production default) injects nothing.
	Inject faultinject.Injector
	// Cache is an optional shared cross-run simulation cache (see
	// NewSimCache): per-(server-shape, app-group) results persist across
	// Consolidate/Evaluate calls and across Problems, keyed by content,
	// so the failure sweep, rebalancing and the planner stop re-solving
	// groups the base plan already solved. Cached reuse is bit-exact, so
	// plans are identical with or without it. Ignored while Inject is
	// set: fault-injection points must fire per evaluation.
	Cache *SimCache

	// attrs caches the sorted union of extra attributes, and checked
	// every app's traces as sim checked them (indexed like Apps); both
	// are set by Validate, the one place app traces are validated.
	attrs   []Attribute
	checked []checkedApp
}

// checkedApp is one application's traces after Problem.Validate: the
// primary workload and, per extra attribute the app carries, that
// attribute's workload. The evaluator builds every aggregate from these,
// so no slot is validated twice.
type checkedApp struct {
	primary sim.Checked
	extra   map[Attribute]sim.Checked
}

// trace returns app a's checked trace for attr, where "" is the primary
// attribute; ok is false when the app does not carry attr.
func (p *Problem) trace(a int, attr Attribute) (c sim.Checked, ok bool) {
	if attr == "" {
		return p.checked[a].primary, true
	}
	c, ok = p.checked[a].extra[attr]
	return c, ok
}

// Validate checks the problem's structural invariants.
func (p *Problem) Validate() error {
	if len(p.Apps) == 0 {
		return errors.New("placement: no applications")
	}
	if len(p.Servers) == 0 {
		return errors.New("placement: no servers")
	}
	seenApp := make(map[string]bool, len(p.Apps))
	checked := make([]checkedApp, len(p.Apps))
	n := -1
	for i, a := range p.Apps {
		c, err := sim.Check(a.Workload)
		if err != nil {
			return err
		}
		checked[i].primary = c
		if a.ID == "" || a.ID != a.Workload.AppID {
			return fmt.Errorf("placement: app ID %q must match workload ID %q", a.ID, a.Workload.AppID)
		}
		if seenApp[a.ID] {
			return fmt.Errorf("placement: duplicate app %q", a.ID)
		}
		seenApp[a.ID] = true
		if n < 0 {
			n = len(a.Workload.CoS1)
		} else if len(a.Workload.CoS1) != n {
			return fmt.Errorf("placement: app %q has %d slots, want %d", a.ID, len(a.Workload.CoS1), n)
		}
	}
	seenSrv := make(map[string]bool, len(p.Servers))
	for _, s := range p.Servers {
		if err := s.Validate(); err != nil {
			return err
		}
		if seenSrv[s.ID] {
			return fmt.Errorf("placement: duplicate server %q", s.ID)
		}
		seenSrv[s.ID] = true
	}
	if p.SlotsPerDay <= 0 {
		return fmt.Errorf("placement: SlotsPerDay %d <= 0", p.SlotsPerDay)
	}
	if p.DeadlineSlots < 0 {
		return fmt.Errorf("placement: DeadlineSlots %d < 0", p.DeadlineSlots)
	}
	if p.Tolerance < 0 {
		return fmt.Errorf("placement: Tolerance %v < 0", p.Tolerance)
	}
	if p.Score != ScorePaper && p.Score != ScoreLinear {
		return fmt.Errorf("placement: unknown score model %v", p.Score)
	}
	if err := validateAttributes(p, checked); err != nil {
		return err
	}
	p.attrs = attributeUnion(p.Apps)
	p.checked = checked
	return p.Commitment.Validate()
}

// tolerance returns the effective bisection tolerance.
func (p *Problem) tolerance() float64 {
	if p.Tolerance > 0 {
		return p.Tolerance
	}
	return DefaultTolerance
}

// Assignment maps each application (by index into Problem.Apps) to a
// server (an index into Problem.Servers).
type Assignment []int

// Validate checks the assignment against the problem dimensions.
func (a Assignment) Validate(p *Problem) error {
	if len(a) != len(p.Apps) {
		return fmt.Errorf("placement: assignment covers %d apps, want %d", len(a), len(p.Apps))
	}
	for i, s := range a {
		if s < 0 || s >= len(p.Servers) {
			return fmt.Errorf("placement: app %d assigned to invalid server %d", i, s)
		}
	}
	return nil
}

// Clone copies the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// ServerUsage reports the evaluation of one server under an assignment.
type ServerUsage struct {
	Server Server
	// AppIDs hosted on this server, in problem order.
	AppIDs []string
	// Required is the required capacity found by the simulator; it is
	// capped at the server's capacity when the workloads do not fit.
	Required float64
	// Feasible reports whether the commitments are satisfied within the
	// server's capacity, across every managed attribute.
	Feasible bool
	// Value is this server's contribution to the consolidation score.
	Value float64
	// Result is the simulator outcome at the reported capacity (primary
	// attribute).
	Result sim.Result
	// ExtraRequired is the required capacity per additional attribute.
	ExtraRequired map[Attribute]float64
}

// Utilization returns R/L for the server.
func (u ServerUsage) Utilization() float64 {
	c := u.Server.Capacity()
	if c == 0 {
		return 0
	}
	return u.Required / c
}

// Plan is an evaluated assignment.
type Plan struct {
	Assignment Assignment
	Usages     []ServerUsage
	// Score is the consolidation objective (higher is better).
	Score float64
	// Feasible reports whether every used server satisfies the
	// commitments.
	Feasible bool
	// ServersUsed counts servers hosting at least one application.
	ServersUsed int
	// RequiredTotal is the sum of per-server required capacities over
	// used servers (the paper's ΣC_requ).
	RequiredTotal float64
	// Truncated reports that the search producing this plan was cancelled
	// (context or time budget) and the plan is the best found so far, not
	// the converged optimum.
	Truncated bool
}

// serverValue implements the per-server score contribution: +1 for an
// unused server, -N for an overbooked one, and f(U) per the score model
// for a feasible server.
func serverValue(u float64, z, nApps int, feasible bool, model ScoreModel) float64 {
	if nApps == 0 {
		return 1
	}
	if !feasible {
		return -float64(nApps)
	}
	if model == ScoreLinear {
		return u
	}
	return math.Pow(u, 2*float64(z))
}

// inflightEval tracks one in-progress per-server simulation so that
// concurrent callers needing the same (server, app-group) wait for the
// single computation instead of racing to duplicate it.
type inflightEval struct {
	done  chan struct{}
	usage ServerUsage
	err   error
}

// evalShards is the number of independent lock+map shards the
// evaluator's per-run cache is split across. The GA's offspring
// evaluations hammer the cache from many goroutines at once; sharding
// by key keeps them off a single mutex. Must be a power of two (keys are FNV hashes, so the low
// bits are well mixed).
const evalShards = 16

// evalShard is one lock's worth of the per-run evaluation cache plus
// its in-flight (singleflight) table.
type evalShard struct {
	mu       sync.Mutex
	cache    map[uint64]ServerUsage
	inflight map[uint64]*inflightEval
}

// evaluator evaluates assignments against a problem, caching per-server
// simulations: the GA revisits the same app groupings constantly, so the
// cache turns most evaluations into lookups. It is safe for concurrent
// use; simulations run outside the locks and are deduplicated through a
// per-shard in-flight table (singleflight style), so each (server,
// group) pair is computed exactly once no matter how many goroutines ask
// for it.
type evaluator struct {
	p *Problem

	// shared is the cross-run cache (nil when the problem has none or
	// carries a fault injector); the signatures below are precomputed
	// once per evaluator so hot-path keys are a few integer folds.
	shared      *SimCache
	cfgSig      uint64
	serverSigs  []uint64
	appHashes   []uint64
	sharedHitC  *telemetry.Counter
	sharedMissC *telemetry.Counter
	warmHitC    *telemetry.Counter
	evictC      *telemetry.Counter

	shards [evalShards]evalShard
	// hits/misses are instrumentation for the ablation benchmarks.
	hits, misses atomic.Int64
	// hitC/missC mirror hits/misses into the problem's metrics registry.
	hitC, missC *telemetry.Counter
}

func newEvaluator(p *Problem) *evaluator {
	if len(p.checked) != len(p.Apps) && p.Validate() != nil {
		// Entry points validate before evaluating. A problem that was
		// never validated is checked here; if that fails, its traces
		// stay unchecked and sim rejects them at the first search.
		p.checked = make([]checkedApp, len(p.Apps))
	}
	h := telemetry.OrNop(p.Hooks)
	e := &evaluator{
		p:     p,
		hitC:  h.Counter("placement_eval_cache_hits_total"),
		missC: h.Counter("placement_eval_cache_misses_total"),
	}
	for i := range e.shards {
		e.shards[i].cache = make(map[uint64]ServerUsage)
		e.shards[i].inflight = make(map[uint64]*inflightEval)
	}
	if p.Cache != nil && p.Inject == nil {
		e.shared = p.Cache
		e.cfgSig = hashConfig(p)
		e.serverSigs = make([]uint64, len(p.Servers))
		for i, s := range p.Servers {
			e.serverSigs[i] = hashServerShape(s, p.attrs)
		}
		e.appHashes = make([]uint64, len(p.Apps))
		for i, a := range p.Apps {
			e.appHashes[i] = hashApp(a, p.attrs)
		}
		e.sharedHitC = h.Counter("placement_shared_cache_hits_total")
		e.sharedMissC = h.Counter("placement_shared_cache_misses_total")
		e.warmHitC = h.Counter("placement_shared_cache_warm_hits_total")
		e.evictC = h.Counter("placement_shared_cache_evictions_total")
	}
	return e
}

// key builds the per-run cache key for a server and a sorted app-index
// group: an FNV-1a fold of the indexes, replacing the string key whose
// strconv/Builder allocations dominated hot lookups.
func (e *evaluator) key(server int, apps []int) uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, server)
	for _, a := range apps {
		h = fnvInt(h, a)
	}
	return h
}

// evalServer simulates the given apps on the given server. The apps
// slice must be sorted ascending. Concurrent calls for the same group
// share one computation; waiters give up when ctx is cancelled.
func (e *evaluator) evalServer(ctx context.Context, server int, apps []int) (ServerUsage, error) {
	srv := e.p.Servers[server]
	if len(apps) == 0 {
		return ServerUsage{Server: srv, Feasible: true, Value: 1}, nil
	}
	k := e.key(server, apps)
	sh := &e.shards[k&(evalShards-1)]
	for {
		sh.mu.Lock()
		if u, ok := sh.cache[k]; ok {
			e.hits.Add(1)
			sh.mu.Unlock()
			e.hitC.Inc()
			return u, nil
		}
		if fl, ok := sh.inflight[k]; ok {
			sh.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return ServerUsage{}, fmt.Errorf("placement: evaluate server %q: %w", srv.ID, ctx.Err())
			}
			if fl.err != nil {
				// The leader failed; nothing was cached, so loop around and
				// recompute (the failure may have been ctx-specific).
				if ctx.Err() != nil {
					return ServerUsage{}, fl.err
				}
				continue
			}
			e.hitC.Inc()
			return fl.usage, nil
		}
		fl := &inflightEval{done: make(chan struct{})}
		sh.inflight[k] = fl
		e.misses.Add(1)
		sh.mu.Unlock()
		e.missC.Inc()

		fl.usage, fl.err = e.loadOrCompute(ctx, server, srv, apps)
		sh.mu.Lock()
		if fl.err == nil {
			sh.cache[k] = fl.usage
		}
		delete(sh.inflight, k)
		sh.mu.Unlock()
		close(fl.done)
		return fl.usage, fl.err
	}
}

// loadOrCompute checks the shared cross-run cache for the full
// (server-shape, group) result before falling back to a fresh
// computation, which it then publishes for every later run.
func (e *evaluator) loadOrCompute(ctx context.Context, server int, srv Server, apps []int) (ServerUsage, error) {
	if e.shared == nil {
		return e.computeServer(ctx, srv, apps)
	}
	k := usageKey{cfg: e.cfgSig, server: e.serverSigs[server], group: hashGroup(e.appHashes, apps)}
	if u, ok := e.shared.getUsage(k); ok {
		e.sharedHitC.Inc()
		u.Server = srv // cached entries are server-identity-agnostic
		return u, nil
	}
	e.sharedMissC.Inc()
	u, err := e.computeServer(ctx, srv, apps)
	if err != nil {
		return u, err
	}
	stored := u
	stored.Server = Server{} // any same-shape server may claim it
	if n := e.shared.putUsage(k, stored); n > 0 {
		e.evictC.Add(int64(n))
	}
	return u, nil
}

// computeServer runs the simulator for one (server, app-group) pair.
func (e *evaluator) computeServer(ctx context.Context, srv Server, apps []int) (ServerUsage, error) {
	ids := make([]string, len(apps))
	for i, a := range apps {
		ids[i] = e.p.Apps[a].ID
	}
	required, res, ok, err := e.searchPrimary(ctx, srv, apps)
	if err != nil {
		return ServerUsage{}, err
	}
	extraRequired, extraOK, err := e.evalAttributes(ctx, srv, apps)
	if err != nil {
		return ServerUsage{}, err
	}
	usage := ServerUsage{
		Server:        srv,
		AppIDs:        ids,
		Required:      required,
		Feasible:      ok && extraOK,
		Result:        res,
		ExtraRequired: extraRequired,
	}
	usage.Value = serverValue(usage.Utilization(), srv.CPUs, len(apps), usage.Feasible, e.p.Score)
	return usage, nil
}

// searchPrimary runs (or warm-starts) the primary-attribute
// required-capacity search for a sorted app group on a server. A warm
// hit reuses the bisection outcome of the same group computed on a
// server of a *different* capacity: when the original search was
// Unclamped, its interval [CoS1Peak, TotalPeak] is limit-independent,
// so any server with capacity >= the group's TotalPeak would reproduce
// it bit for bit — the gate getWarm enforces.
func (e *evaluator) searchPrimary(ctx context.Context, srv Server, apps []int) (float64, sim.Result, bool, error) {
	var wk warmKey
	if e.shared != nil {
		wk = warmKey{cfg: e.cfgSig, group: hashGroup(e.appHashes, apps)}
		if w, ok := e.shared.getWarm(wk, srv.Capacity()); ok {
			e.warmHitC.Inc()
			return w.required, w.result, true, nil
		}
	}
	out, totalPeak, _, err := e.search(ctx, srv, apps, "", srv.Capacity())
	if err != nil {
		return 0, sim.Result{}, false, err
	}
	if e.shared != nil && out.Feasible && out.Unclamped {
		w := warmResult{required: out.Capacity, result: out.Result, totalPeak: totalPeak}
		if n := e.shared.putWarm(wk, w); n > 0 {
			e.evictC.Add(int64(n))
		}
	}
	return out.Capacity, out.Result, out.Feasible, nil
}

// checkedPool recycles the slices search gathers a group's checked
// traces into.
var checkedPool = sync.Pool{New: func() any { return new([]sim.Checked) }}

// search runs the required-capacity search for one attribute of a
// sorted app group ("" is the primary attribute) against limit, summing
// the apps' checked traces into a pooled aggregate. found is false, and
// nothing is searched, when no app in the group carries the attribute.
func (e *evaluator) search(ctx context.Context, srv Server, apps []int, attr Attribute, limit float64) (out sim.SearchOutcome, totalPeak float64, found bool, err error) {
	buf := checkedPool.Get().(*[]sim.Checked)
	group := (*buf)[:0]
	for _, a := range apps {
		if c, ok := e.p.trace(a, attr); ok {
			group = append(group, c)
		}
	}
	if len(group) > 0 {
		found = true
		cfg := sim.Config{
			Commitment:    e.p.Commitment,
			SlotsPerDay:   e.p.SlotsPerDay,
			DeadlineSlots: e.p.DeadlineSlots,
			Hooks:         e.p.Hooks,
			Inject:        e.p.Inject,
			InjectKey:     srv.ID,
		}
		out, totalPeak, err = sim.SearchChecked(ctx, group, cfg, limit, e.p.tolerance())
	}
	clear(group) // drop the trace references while pooled
	*buf = group
	checkedPool.Put(buf)
	return out, totalPeak, found, err
}

// evaluate scores a full assignment, per-server usages included.
func (e *evaluator) evaluate(ctx context.Context, a Assignment) (*Plan, error) {
	return e.plan(ctx, a.Clone(), true)
}

// score evaluates an assignment's summary (Score, Feasible, ServersUsed,
// RequiredTotal) without Usages, which is all the GA compares its
// population on. The plan takes ownership of a.
func (e *evaluator) score(ctx context.Context, a Assignment) (*Plan, error) {
	return e.plan(ctx, a, false)
}

// plan evaluates every server of assignment a, keeping the per-server
// usages only when usages is set. Scores are summed in server order
// either way, so both forms agree bit for bit.
func (e *evaluator) plan(ctx context.Context, a Assignment, usages bool) (*Plan, error) {
	if err := a.Validate(e.p); err != nil {
		return nil, err
	}
	g := groupingPool.Get().(*grouping)
	defer groupingPool.Put(g)
	g.build(a, len(e.p.Servers))
	plan := &Plan{Assignment: a, Feasible: true}
	if usages {
		plan.Usages = make([]ServerUsage, len(e.p.Servers))
	}
	for s := range e.p.Servers {
		apps := g.group(s)
		usage, err := e.evalServer(ctx, s, apps)
		if err != nil {
			return nil, err
		}
		if usages {
			plan.Usages[s] = usage
		}
		plan.Score += usage.Value
		if len(apps) > 0 {
			plan.ServersUsed++
			plan.RequiredTotal += usage.Required
			if !usage.Feasible {
				plan.Feasible = false
			}
		}
	}
	return plan, nil
}

// grouping is an assignment inverted into per-server app groups by a
// counting sort into one flat buffer: group s is
// apps[start[s]:start[s+1]], ascending because apps are placed in index
// order. Its buffers are reused across builds.
type grouping struct {
	start []int
	apps  []int
}

// groupingPool recycles grouping buffers across evaluations.
var groupingPool = sync.Pool{New: func() any { return new(grouping) }}

// build inverts assignment a over the given number of servers.
func (g *grouping) build(a Assignment, servers int) {
	g.start = resize(g.start, servers+1)
	clear(g.start)
	g.apps = resize(g.apps, len(a))
	for _, s := range a {
		g.start[s+1]++
	}
	for s := 1; s <= servers; s++ {
		g.start[s] += g.start[s-1]
	}
	// Use start[s] as group s's write cursor; afterwards it holds the
	// group's end, which is group s+1's start, so shift it back.
	for app, s := range a {
		g.apps[g.start[s]] = app
		g.start[s]++
	}
	copy(g.start[1:], g.start[:servers])
	g.start[0] = 0
}

// group returns server s's apps, ascending. The slice aliases the
// grouping's buffer and is valid until the next build.
func (g *grouping) group(s int) []int { return g.apps[g.start[s]:g.start[s+1]] }

// resize returns buf with length n, reallocating only to grow.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// Evaluate scores an assignment against a problem without searching. A
// single evaluation is cheap relative to the searches, so it takes no
// context; use the searching entry points for cancellable work.
func Evaluate(p *Problem, a Assignment) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newEvaluator(p).evaluate(context.Background(), a)
}

// OneAppPerServer returns the trivial assignment placing application i
// on server i; it requires at least as many servers as applications and
// is the usual starting configuration for a consolidation exercise.
func OneAppPerServer(p *Problem) (Assignment, error) {
	if len(p.Servers) < len(p.Apps) {
		return nil, fmt.Errorf("placement: need %d servers for one-app-per-server, have %d",
			len(p.Apps), len(p.Servers))
	}
	a := make(Assignment, len(p.Apps))
	for i := range a {
		a[i] = i
	}
	return a, nil
}

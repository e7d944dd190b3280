package main

import (
	"fmt"

	"ropus/internal/placement"
)

// checkPlan verifies a consolidation without trusting the optimizer's
// bookkeeping: the assignment covers every application of the problem,
// every application appears on exactly one used server and on the server
// the assignment names, every used server meets its commitments within
// its capacity, and the plan is complete rather than a best-so-far.
func checkPlan(p *placement.Problem, plan *placement.Plan) error {
	if plan == nil {
		return fmt.Errorf("no plan")
	}
	if plan.Truncated {
		return fmt.Errorf("plan is truncated (best-so-far, not converged)")
	}
	if len(plan.Assignment) != len(p.Apps) {
		return fmt.Errorf("assignment covers %d apps, problem has %d", len(plan.Assignment), len(p.Apps))
	}
	if len(plan.Usages) != len(p.Servers) {
		return fmt.Errorf("plan has %d server usages, problem has %d servers", len(plan.Usages), len(p.Servers))
	}
	index := make(map[string]int, len(p.Apps))
	for i, a := range p.Apps {
		index[a.ID] = i
	}
	seen := make([]bool, len(p.Apps))
	used := 0
	for s, u := range plan.Usages {
		if len(u.AppIDs) == 0 {
			continue
		}
		used++
		if !u.Feasible {
			return fmt.Errorf("server %s is overbooked", p.Servers[s].ID)
		}
		if c := p.Servers[s].Capacity(); u.Required > c {
			return fmt.Errorf("server %s needs %.3f CPUs, has %.3f", p.Servers[s].ID, u.Required, c)
		}
		for _, id := range u.AppIDs {
			i, ok := index[id]
			switch {
			case !ok:
				return fmt.Errorf("server %s hosts unknown app %q", p.Servers[s].ID, id)
			case seen[i]:
				return fmt.Errorf("app %q is placed more than once", id)
			case plan.Assignment[i] != s:
				return fmt.Errorf("app %q is listed on server %s but assigned to server %d", id, p.Servers[s].ID, plan.Assignment[i])
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("app %q is not placed", p.Apps[i].ID)
		}
	}
	if used != plan.ServersUsed {
		return fmt.Errorf("plan reports %d servers used, usages show %d", plan.ServersUsed, used)
	}
	if !plan.Feasible {
		return fmt.Errorf("plan is infeasible")
	}
	return nil
}

// reevaluate scores the plan's assignment again with a cache-free,
// telemetry-free placement.Evaluate and reports any difference in the
// servers used, the required capacity total or feasibility.
func reevaluate(p *placement.Problem, plan *placement.Plan) error {
	cold := *p
	cold.Cache = nil
	cold.Hooks = nil
	got, err := placement.Evaluate(&cold, plan.Assignment)
	if err != nil {
		return fmt.Errorf("re-evaluate: %w", err)
	}
	if got.ServersUsed != plan.ServersUsed || got.RequiredTotal != plan.RequiredTotal || got.Feasible != plan.Feasible {
		return fmt.Errorf("re-evaluation disagrees: servers %d/%d, required %.9g/%.9g, feasible %v/%v",
			got.ServersUsed, plan.ServersUsed, got.RequiredTotal, plan.RequiredTotal, got.Feasible, plan.Feasible)
	}
	return nil
}

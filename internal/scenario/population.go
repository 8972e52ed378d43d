package scenario

import (
	"fmt"

	"repro/internal/population"
)

// tenantApp converts one generated tenant into a declarative App. The
// population layer emits phases in scenario units (MiB/KiB/seconds) with
// the same field meanings, so the conversion is mechanical; the tenant's
// private seed rides along so the expansion stays independent of the
// tenant's position in the list.
func tenantApp(t population.Tenant) App {
	a := App{
		Name:       t.Name,
		Procs:      t.Procs,
		StartS:     t.StartS,
		Iterations: t.Iterations,
		Seed:       t.Seed,
	}
	a.Phases = make([]Phase, len(t.Phases))
	for i, ph := range t.Phases {
		a.Phases[i] = Phase{
			Kind: ph.Kind,
			IO: IO{
				Pattern:    ph.Pattern,
				BlockMB:    ph.BlockMB,
				TransferKB: ph.TransferKB,
				Read:       ph.Read,
			},
			ComputeS: ph.ComputeS,
			JitterS:  ph.JitterS,
		}
	}
	return a
}

// ExpandPopulation stamps the generated tenants of a population scenario
// into a plain app-list Spec (Population cleared, Apps filled, everything
// else carried over) and returns the tenant list alongside. The expansion
// is deterministic in the population seed, and the expanded spec passes
// Validate — the generator only emits knob combinations the scenario layer
// accepts (guarded by TestExpandedPopulationValidates).
func ExpandPopulation(s Spec) (Spec, []population.Tenant, error) {
	if s.Population == nil {
		return Spec{}, nil, fmt.Errorf("scenario %q: no population block", s.Name)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, nil, err
	}
	tenants, err := population.Generate(*s.Population)
	if err != nil {
		return Spec{}, nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	out := s
	out.Population = nil
	out.Apps = make([]App, len(tenants))
	for i, t := range tenants {
		out.Apps[i] = tenantApp(t)
	}
	return out, tenants, nil
}

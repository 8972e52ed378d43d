package core

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// FaultComparison pairs a run under a fault plan with its healthy twin —
// the same platform and applications with the plan stripped — so the cost
// of the faults is an interference-factor-style ratio against a controlled
// baseline, exactly the paper's reporting device applied to availability.
type FaultComparison struct {
	Healthy RunResult
	Faulted RunResult
}

// IF returns application i's interference factor under faults: faulted
// elapsed time over healthy elapsed time (1 = the faults cost nothing).
func (fc FaultComparison) IF(i int) float64 {
	h := fc.Healthy.Apps[i].Elapsed
	if h <= 0 {
		return 0
	}
	return float64(fc.Faulted.Apps[i].Elapsed) / float64(h)
}

// GoodputRatio returns goodput over offered bytes of the faulted run (1 =
// nothing was discarded; degrades as outages eat pushed bytes).
func (fc FaultComparison) GoodputRatio() float64 {
	off := fc.Faulted.Diag.Avail.OfferedBytes
	if off <= 0 {
		return 0
	}
	return float64(fc.Faulted.Diag.Avail.GoodputBytes) / float64(off)
}

// Downtime returns the faulted run's summed server downtime.
func (fc FaultComparison) Downtime() sim.Time { return fc.Faulted.Diag.Avail.Downtime }

// RunFaultComparison runs cfg's applications twice: once with cfg.Faults
// stripped (the healthy baseline) and once as given. cfg must carry a
// fault plan for the comparison to mean anything, but a nil plan is legal
// (both arms are then identical by determinism).
func RunFaultComparison(cfg cluster.Config, specs []AppSpec) FaultComparison {
	healthy := cfg
	healthy.Faults = nil
	return FaultComparison{
		Healthy: Prepare(healthy, specs).Run(),
		Faulted: Prepare(cfg, specs).Run(),
	}
}

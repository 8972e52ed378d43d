package scenario

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/population"
)

// Builtin returns the registry of named scenarios that ship with the
// repository, in a fixed order. Each one isolates an interference mechanism
// the paper's two-application campaigns cannot express — more than two
// co-running applications, mixed read/write modes, asymmetric workload
// sizes, staggered arrivals, and partitioned server placements. All of them
// run on the standard backend axis (HDD and SSD) unless pinned.
//
// SCENARIOS.md documents every entry: what it models, which mechanism it
// exercises and what to look for in its δ-graph and IF matrix.
func Builtin() []Spec {
	return []Spec{
		{
			Name: "strided-pileup-3",
			Description: "Three strided writers interleave at every server: per-request " +
				"seek amplification on HDD, absorbed by channel parallelism on flash (SSDChannels=4).",
			Servers:     4,
			SSDChannels: 4,
			DeltaS:      []float64{-15, -5, 0, 5, 15},
			Apps: []App{
				{Procs: 32, IO: IO{Pattern: "strided", BlockMB: 16, TransferKB: 256}},
				{Procs: 32, IO: IO{Pattern: "strided", BlockMB: 16, TransferKB: 256}},
				{Procs: 32, IO: IO{Pattern: "strided", BlockMB: 16, TransferKB: 256}},
			},
		},
		{
			Name: "checkpoint-vs-read",
			Description: "A checkpointing writer against a restart-style reader (mixed mode): " +
				"write and read streams collide in the server queue and at the device.",
			Servers: 4,
			DeltaS:  []float64{-10, 0, 10},
			Apps: []App{
				{Name: "checkpoint", Procs: 32, IO: IO{BlockMB: 64}},
				{Name: "restart", Procs: 32, IO: IO{BlockMB: 32, Read: true}},
			},
		},
		{
			Name: "elephant-mice",
			Description: "One bulk writer (elephant) against two small latency-bound apps (mice): " +
				"the elephant barely notices, the mice see severe IF — the asymmetry a pairwise matrix exposes.",
			Servers: 4,
			DeltaS:  []float64{-10, 0, 10},
			Apps: []App{
				{Name: "elephant", Procs: 32, IO: IO{BlockMB: 128}},
				{Name: "mouse1", Procs: 8, IO: IO{Pattern: "strided", BlockMB: 4, TransferKB: 64}},
				{Name: "mouse2", Procs: 8, IO: IO{Pattern: "strided", BlockMB: 4, TransferKB: 64}},
			},
		},
		{
			Name: "staggered-arrivals-4",
			Description: "Four identical writers entering their I/O phase 2 s apart: how a burst " +
				"pile-up builds and drains, and how far δ must stretch before the train decouples.",
			Servers: 4,
			DeltaS:  []float64{-20, -5, 0, 5, 20},
			Apps: []App{
				{Procs: 16, IO: IO{BlockMB: 16}},
				{Procs: 16, IO: IO{BlockMB: 16}, StartS: 2},
				{Procs: 16, IO: IO{BlockMB: 16}, StartS: 4},
				{Procs: 16, IO: IO{BlockMB: 16}, StartS: 6},
			},
		},
		{
			Name: "shared-servers-4",
			Description: "Four writers striping over all four servers — the N-app pile-up baseline " +
				"for partitioned-servers-4.",
			Servers: 4,
			DeltaS:  []float64{-10, 0, 10},
			Apps: []App{
				{Procs: 16, IO: IO{BlockMB: 16}},
				{Procs: 16, IO: IO{BlockMB: 16}},
				{Procs: 16, IO: IO{BlockMB: 16}},
				{Procs: 16, IO: IO{BlockMB: 16}},
			},
		},
		{
			Name: "partitioned-servers-4",
			Description: "The same four writers, each targeting a private server (the paper's §IV-A6 " +
				"knob at N=4): interference collapses to the shared network switch.",
			Servers: 4,
			DeltaS:  []float64{-10, 0, 10},
			Apps: []App{
				{Procs: 16, IO: IO{BlockMB: 16}, TargetServers: []int{0}},
				{Procs: 16, IO: IO{BlockMB: 16}, TargetServers: []int{1}},
				{Procs: 16, IO: IO{BlockMB: 16}, TargetServers: []int{2}},
				{Procs: 16, IO: IO{BlockMB: 16}, TargetServers: []int{3}},
			},
		},
		{
			Name: "aggressor-victim",
			Description: "One bulk writer against a latency-bound strided writer — the mitigation " +
				"showcase: the victim's small requests queue behind the aggressor's deep chunk pipelines " +
				"at every server, exactly the backlog a QoS scheduler removes (scenarios -qos, make mitigate).",
			Servers: 4,
			DeltaS:  []float64{-10, 0, 10},
			Apps: []App{
				{Name: "aggressor", Procs: 32, IO: IO{BlockMB: 128}},
				{Name: "victim", Procs: 8, IO: IO{Pattern: "strided", BlockMB: 8, TransferKB: 256}},
			},
		},
		{
			Name: "periodic-checkpoint-4",
			Description: "A periodic checkpointer (4 barrier-synchronized bursts, 2 s compute between) " +
				"against a steady restart reader: burst *timing*, not just overlap, decides which " +
				"checkpoints collide — record it with -trace, replay it with -replay.",
			Servers: 4,
			DeltaS:  []float64{-5, 0, 5},
			Apps: []App{
				{Name: "checkpoint", Procs: 32, Iterations: 4, Phases: []Phase{
					{Kind: "barrier"},
					{Kind: "io", IO: IO{BlockMB: 16}},
					{Kind: "compute", ComputeS: 2},
				}},
				{Name: "reader", Procs: 8, Iterations: 4, Phases: []Phase{
					{Kind: "io", IO: IO{Pattern: "strided", BlockMB: 8, TransferKB: 256, Read: true}},
					{Kind: "compute", ComputeS: 0.5},
				}},
			},
		},
		{
			Name: "bursty-poisson-mix",
			Description: "Three tenants emitting Poisson-jittered bursts (deterministic per-app seeds): " +
				"inter-arrival structure makes some bursts collide and others slip past each other — " +
				"the spread between mean and peak IF that one-shot synchronized bursts cannot show.",
			Servers: 4,
			DeltaS:  []float64{-5, 0, 5},
			Apps: []App{
				{Name: "tenant1", Procs: 16, Seed: 11, Iterations: 3, Phases: []Phase{
					{Kind: "compute", ComputeS: 0.5, JitterS: 1.5},
					{Kind: "io", IO: IO{BlockMB: 12}},
				}},
				{Name: "tenant2", Procs: 16, Seed: 23, Iterations: 3, Phases: []Phase{
					{Kind: "compute", ComputeS: 0.5, JitterS: 1.5},
					{Kind: "io", IO: IO{BlockMB: 12}},
				}},
				{Name: "tenant3", Procs: 16, Seed: 37, Iterations: 3, Phases: []Phase{
					{Kind: "compute", ComputeS: 0.5, JitterS: 1.5},
					{Kind: "io", IO: IO{Pattern: "strided", BlockMB: 8, TransferKB: 256}},
				}},
			},
		},
		{
			Name: "mixed-transfer",
			Description: "Two strided writers with 16x different request sizes (1 MiB vs 64 KiB) " +
				"sharing the stripe: the small-request app pays the per-request costs, the large one wins.",
			Servers: 4,
			DeltaS:  []float64{-10, 0, 10},
			Apps: []App{
				{Name: "large-req", Procs: 16, IO: IO{Pattern: "strided", BlockMB: 16, TransferKB: 1024}},
				{Name: "small-req", Procs: 16, IO: IO{Pattern: "strided", BlockMB: 16, TransferKB: 64}},
			},
		},
		// The fault builtins live at the end of the registry: golden
		// mitigation rows are pinned by registry order, so new entries
		// append rows without moving existing ones.
		{
			Name: "server-crash-checkpoint",
			Description: "A checkpointing writer and a restart reader ride out a storage-server " +
				"crash mid-burst: in-flight requests die with the server, the clients' deadlines " +
				"fire, and capped-backoff retries land the lost work after the restart — the " +
				"availability cost shows up as IF against the healthy twin (scenarios -faults).",
			Servers: 4,
			DeltaS:  []float64{-5, 0, 5},
			Faults: &FaultBlock{
				Events: []FaultEvent{
					{Kind: "server-crash", Server: 1, AtS: 1},
					{Kind: "server-restart", Server: 1, AtS: 2.2},
				},
				DeadlineMS: 1000, BackoffMS: 100, BackoffMaxMS: 800,
				Retries: 12, RetryBudget: -1, ResumeMS: 250,
			},
			Apps: []App{
				{Name: "checkpoint", Procs: 32, IO: IO{Pattern: "strided", BlockMB: 64, TransferKB: 1024}},
				{Name: "restart", Procs: 8, IO: IO{Pattern: "strided", BlockMB: 8, TransferKB: 256, Read: true}},
			},
		},
		{
			Name: "degraded-ost-victim",
			Description: "One OST drops to a fraction of its nominal throughput (a rebuilding " +
				"RAID set) under an app pinned to it, while a striped bulk writer shares the " +
				"platform: the victim's requests stretch and time out against the slow device, " +
				"the bystander mostly rides on the healthy servers.",
			Servers: 4,
			DeltaS:  []float64{-5, 0, 5},
			Faults: &FaultBlock{
				Events: []FaultEvent{
					{Kind: "device-degrade", Server: 0, AtS: 0.5, Factor: 6, LatencyMS: 2},
					{Kind: "device-restore", Server: 0, AtS: 3},
				},
				DeadlineMS: 1500, BackoffMS: 100, BackoffMaxMS: 800,
				Retries: 10, RetryBudget: -1, ResumeMS: 250,
			},
			Apps: []App{
				{Name: "victim", Procs: 16, IO: IO{Pattern: "strided", BlockMB: 16, TransferKB: 512},
					TargetServers: []int{0}},
				{Name: "bulk", Procs: 16, IO: IO{BlockMB: 32}},
			},
		},
	}
}

// FleetBuiltin returns the built-in population scenarios. They live in
// their own registry: Builtin() feeds the δ-graph + pairwise path (golden,
// conformance and mitigation suites iterate it), which is infeasible at
// fleet tenant counts — population scenarios run through RunFleet instead.
// Lookup searches both registries.
func FleetBuiltin() []Spec {
	return []Spec{
		{
			Name: "fleet",
			Description: "A generated 1024-tenant population (Zipf volumes, Poisson arrivals, " +
				"default class mix) over 24 servers: per-class IF distributions, " +
				"slowdown percentiles and sampled aggressor/victim pairs replace the " +
				"infeasible 1024x1024 matrix — the paper's methodology at fleet scale.",
			Backend: "hdd",
			Servers: 24,
			Population: &population.Params{
				Count:       1024,
				Seed:        42,
				BaseMB:      256,
				ZipfExp:     1.1,
				Arrival:     "poisson",
				WindowS:     64,
				Bursts:      2,
				ThinkS:      2,
				JitterS:     1,
				SamplePairs: 48,
			},
		},
	}
}

// FleetNames returns the built-in population scenario names, sorted.
func FleetNames() []string {
	fs := FleetBuiltin()
	names := make([]string, len(fs))
	for i, s := range fs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// FaultNames returns the names of the built-in scenarios that carry a
// faults block, sorted.
func FaultNames() []string {
	var names []string
	for _, s := range Builtin() {
		if s.Faults != nil {
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Names returns the built-in scenario names, sorted.
func Names() []string {
	bs := Builtin()
	names := make([]string, len(bs))
	for i, s := range bs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// Lookup finds a built-in scenario by name, searching the δ-graph registry
// and the fleet registry. The error of a miss lists the valid set,
// mirroring cluster.ParseBackend.
func Lookup(name string) (Spec, error) {
	for _, s := range append(Builtin(), FleetBuiltin()...) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q (valid: %s)",
		name, strings.Join(append(Names(), FleetNames()...), ", "))
}

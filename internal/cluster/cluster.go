// Package cluster assembles simulated platforms: compute nodes with shared
// NICs, storage servers with devices (and write caches when synchronization
// is off), the network fabric, and the parallel file system. Default() is
// calibrated against the paper's testbed — the Grid'5000 parasilo/paravance
// clusters (60 compute nodes with two 8-core CPUs, 12 OrangeFS servers,
// 10 GbE) — so that single-application baselines land in the paper's range.
package cluster

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// BackendKind selects the storage device model behind each server.
type BackendKind int

// Backends from the paper's experiments.
const (
	HDD BackendKind = iota
	SSD
	RAM
	Null // PVFS null-aio: no storage at all
)

func (b BackendKind) String() string {
	switch b {
	case HDD:
		return "hdd"
	case SSD:
		return "ssd"
	case RAM:
		return "ram"
	case Null:
		return "null"
	}
	return "unknown"
}

// BackendNames lists the canonical backend names ParseBackend accepts, in
// declaration order — the valid set shown by CLI error messages.
func BackendNames() []string {
	return []string{HDD.String(), SSD.String(), RAM.String(), Null.String()}
}

// ParseBackend converts a name ("hdd", "ssd", "ram", "null"; a few aliases
// like "disk" and "tmpfs" are accepted) to a kind. Unknown names yield an
// error listing the valid set.
func ParseBackend(s string) (BackendKind, error) {
	switch strings.ToLower(s) {
	case "hdd", "disk":
		return HDD, nil
	case "ssd":
		return SSD, nil
	case "ram", "memory", "tmpfs":
		return RAM, nil
	case "null", "null-aio", "nullaio":
		return Null, nil
	}
	return 0, fmt.Errorf("cluster: unknown backend %q (valid: %s)",
		s, strings.Join(BackendNames(), ", "))
}

// Config describes a platform to build.
type Config struct {
	// ComputeNodes is the number of client machines; CoresPerNode is how
	// many application processes share each machine's NIC.
	ComputeNodes int
	CoresPerNode int

	// ClientNIC and ServerNIC are NIC rates in bytes/second. The paper's
	// bandwidth experiment lowers ClientNIC from 10 GbE to 1 GbE.
	ClientNIC float64
	ServerNIC float64

	// Servers is the number of storage servers.
	Servers int
	// Backend selects the device model; Sync the persistence mode.
	Backend BackendKind
	Sync    pfs.SyncMode
	// StripeSize is the file system's default stripe size.
	StripeSize int64

	// Subsystem tunables (calibrated defaults from Default()).
	Net   netsim.Params
	Srv   pfs.ServerParams
	HDD   storage.HDDParams
	SSD   storage.SSDParams
	RAM   storage.RAMParams
	Cache storage.CacheParams

	// PerSeg is the fixed per-segment NIC processing overhead.
	PerSeg sim.Time

	// IssueJitter perturbs each request's per-server queue position,
	// modeling network and scheduling noise that decorrelates service
	// order across servers.
	IssueJitter sim.Time

	// Seed drives all randomized choices (none in the core model, but
	// probes and failure injection fork from it).
	Seed uint64

	// Faults, when non-nil, is the deterministic fault timeline injected
	// into the platform. It activates the whole fault surface: every
	// server's device is wrapped in a storage.Degraded, the client RPC
	// layer switches to deadline/retry (Faults.Retry), and the plan's
	// events are scheduled at build time on each target server's shard.
	// nil builds a platform bit-identical to a fault-free one.
	Faults *fault.Plan
}

// GbE10 and GbE1 are NIC rates in bytes/second.
const (
	GbE10 = 1.25e9
	GbE1  = 1.25e8
)

// Default returns the paper-calibrated platform: 60 nodes x 16 cores
// against 12 OrangeFS servers over 10 GbE, HDDs with sync enabled, 64 KiB
// stripes.
func Default() Config {
	srv := pfs.DefaultServerParams()
	// Per-server ingest ceiling: the paper's sync-OFF runs move ~30 GB in
	// ~5.5 s over 12 servers (~460 MB/s per server) — request processing,
	// not the 10 GbE NIC, is the server bottleneck.
	srv.CPUBytesPerSec = 700e6
	srv.CPUPerChunk = 120 * sim.Microsecond
	return Config{
		ComputeNodes: 60,
		CoresPerNode: 16,
		ClientNIC:    GbE10,
		ServerNIC:    GbE10,
		Servers:      12,
		Backend:      HDD,
		Sync:         pfs.SyncOn,
		StripeSize:   64 << 10,
		Net:          netsim.DefaultParams(),
		Srv:          srv,
		HDD:          storage.DefaultHDD(),
		SSD:          storage.DefaultSSD(),
		RAM:          storage.DefaultRAM(),
		Cache:        storage.DefaultCache(),
		PerSeg:       5 * sim.Microsecond,
		IssueJitter:  4 * sim.Millisecond,
		Seed:         1,
	}
}

// Scale shrinks the experiment while preserving per-node and per-server
// ratios: it divides node, core and server counts by f (minimum 1 each,
// keeping at least 2 nodes and 2 servers for two-application runs).
// Workload bytes are the caller's concern.
func (c Config) Scale(f int) Config {
	if f <= 1 {
		return c
	}
	div := func(n, min int) int {
		n /= f
		if n < min {
			n = min
		}
		return n
	}
	c.ComputeNodes = div(c.ComputeNodes, 2)
	c.CoresPerNode = div(c.CoresPerNode, 1)
	c.Servers = div(c.Servers, 2)
	return c
}

// Validate checks the configuration: positive node, core and server
// counts, NIC rates, stripe size, flow buffer size and segment size, a
// known backend and sync mode, a valid scheduler (qos.Params.Validate)
// and a valid fault plan. Build panics on a config Validate rejects.
func (c Config) Validate() error {
	switch {
	case c.ComputeNodes <= 0:
		return fmt.Errorf("cluster: ComputeNodes must be positive")
	case c.CoresPerNode <= 0:
		return fmt.Errorf("cluster: CoresPerNode must be positive")
	case c.Servers <= 0:
		return fmt.Errorf("cluster: Servers must be positive")
	case c.ClientNIC <= 0 || c.ServerNIC <= 0:
		return fmt.Errorf("cluster: NIC rates must be positive")
	case c.StripeSize <= 0:
		return fmt.Errorf("cluster: StripeSize must be positive")
	case c.Backend < HDD || c.Backend > Null:
		return fmt.Errorf("cluster: unknown backend %d", int(c.Backend))
	case c.Sync < pfs.SyncOn || c.Sync > pfs.NullAIO:
		return fmt.Errorf("cluster: unknown sync mode %d", int(c.Sync))
	case c.Srv.FlowBufSize <= 0:
		return fmt.Errorf("cluster: Srv.FlowBufSize must be positive")
	case c.Net.MSS <= 0:
		return fmt.Errorf("cluster: Net.MSS must be positive")
	}
	if err := c.Srv.QoS.Validate(); err != nil {
		return fmt.Errorf("cluster: Srv.QoS: %w", err)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Servers); err != nil {
			return err
		}
	}
	return nil
}

// Platform is a built simulation: engine, fabric, file system, nodes.
type Platform struct {
	Cfg    Config
	E      *sim.Engine
	Rand   *sim.Rand
	Fabric *netsim.Fabric
	FS     *pfs.FileSystem

	// Set is the shard synchronizer of a sharded build (nil for the serial
	// oracle). E is then shard 0's engine — the shard owning clients, file
	// system and coordination state.
	Set *sim.ShardSet

	// Nodes are the compute hosts; process i of an application placed on
	// nodes [a..b] shares the NIC of node a + i/CoresPerNode.
	Nodes []*netsim.Host
	// Servers, Devices and Caches are indexed by server id. Caches[i] is
	// nil unless Sync is SyncOff. Devices are the raw backend devices;
	// Degraded[i] is the fault wrapper the server actually talks to, nil
	// unless a fault plan was configured.
	Servers  []*pfs.Server
	Devices  []storage.Device
	Caches   []*storage.WriteCache
	Degraded []*storage.Degraded
}

// NominalBW returns the backend's nominal sequential bandwidth — the
// baseline a DeviceDegrade throughput factor is relative to.
func NominalBW(c Config) float64 {
	switch c.Backend {
	case HDD:
		return c.HDD.SeqBW
	case SSD:
		return c.SSD.BW
	case RAM:
		return c.RAM.BW
	}
	return 0 // Null: Degraded falls back to its internal default
}

// NewDevice builds one backend device according to the config (exported so
// the local, network-free Table I experiment can use the same calibration).
func NewDevice(e *sim.Engine, c Config) storage.Device {
	switch c.Backend {
	case HDD:
		return storage.NewHDD(e, c.HDD)
	case SSD:
		return storage.NewSSD(e, c.SSD)
	case RAM:
		return storage.NewRAM(e, c.RAM)
	case Null:
		return storage.NewNull(e)
	}
	panic("cluster: unknown backend")
}

// Build assembles the platform on one serial engine.
func Build(c Config) *Platform { return build(c, nil) }

// BuildSharded assembles the platform across `shards` independently-clocked
// engines of one sim.ShardSet (see build for the layout). The shard count is
// clamped to 1+Servers (no point in more shards than servers); shards <= 1 —
// or a transport with no safe lookahead — falls back to the serial Build,
// bit-identical to always.
func BuildSharded(c Config, shards int) *Platform {
	shards = min(shards, 1+c.Servers)
	la := c.Net.Lookahead()
	if shards <= 1 || la <= 0 {
		return Build(c)
	}
	return build(c, sim.NewShardSet(shards, la))
}

// build assembles the platform on set's engines, or on one fresh engine when
// set is nil. Shard 0 owns the clients, compute-node NICs, file system and
// coordination state; shards 1..K-1 own the storage servers (host NIC,
// device, cache, server logic) in contiguous blocks. Host IDs and
// random-stream forks come from this one construction order whatever the
// shard count, which is what makes sharded runs reproduce serial results
// bit for bit.
func build(c Config, set *sim.ShardSet) *Platform {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	var e *sim.Engine
	srvEngine := func(int) *sim.Engine { return e }
	if set == nil {
		e = sim.NewEngine()
	} else {
		e = set.Engine(0)
		srvEngine = func(i int) *sim.Engine { return set.Engine(1 + i*(set.Shards()-1)/c.Servers) }
	}
	fab := netsim.NewFabric(e, c.Net)
	pl := &Platform{
		Cfg:    c,
		E:      e,
		Rand:   sim.NewRand(c.Seed),
		Fabric: fab,
		Set:    set,
	}
	for i := 0; i < c.Servers; i++ {
		se := srvEngine(i)
		host := fab.NewHostOn(se, fmt.Sprintf("srv%d", i), c.ServerNIC, c.PerSeg)
		dev, sdev, deg := newBackend(se, c)
		var cache *storage.WriteCache
		if c.Sync == pfs.SyncOff {
			cache = storage.NewWriteCache(se, c.Cache, sdev)
		}
		pl.Servers = append(pl.Servers, pfs.NewServer(se, i, host, sdev, cache, c.Sync, c.Srv))
		pl.Devices = append(pl.Devices, dev)
		pl.Caches = append(pl.Caches, cache)
		pl.Degraded = append(pl.Degraded, deg)
	}
	for i := 0; i < c.ComputeNodes; i++ {
		pl.Nodes = append(pl.Nodes, fab.NewHost(fmt.Sprintf("node%d", i), c.ClientNIC, c.PerSeg))
	}
	pl.FS = pfs.NewFileSystem(e, fab, pl.Servers)
	pl.FS.Rand = pl.Rand.Fork()
	pl.FS.IssueJitter = c.IssueJitter
	pl.installFaults()
	return pl
}

// newBackend builds one backend device, wrapped in a Degraded fault shim
// when a fault plan is configured. Returns the raw device, the device the
// server stack should talk to, and the shim (nil without faults).
func newBackend(e *sim.Engine, c Config) (raw, use storage.Device, deg *storage.Degraded) {
	dev := NewDevice(e, c)
	if c.Faults == nil {
		return dev, dev, nil
	}
	d := storage.NewDegraded(e, dev, NominalBW(c))
	return dev, d, d
}

// installFaults activates the fault surface of a freshly built platform:
// the client retry policy and the plan's events, each scheduled at setup
// time on the engine owning its target server. No-op without a fault plan.
func (pl *Platform) installFaults() {
	p := pl.Cfg.Faults
	if p == nil {
		return
	}
	pl.FS.EnableRetry(p.Retry)
	hooks := make([]fault.Hooks, len(pl.Servers))
	for i, srv := range pl.Servers {
		deg := pl.Degraded[i]
		host := srv.Host
		hooks[i] = fault.Hooks{
			E:         srv.E,
			Crash:     srv.Crash,
			Restart:   srv.Restart,
			Degrade:   deg.Degrade,
			Restore:   deg.Restore,
			SetLink:   host.SetLinkDown,
			LossBurst: host.StartLossBurst,
		}
	}
	fault.Schedule(p, hooks)
}

// Run executes the simulation to completion — across all shards for a
// sharded build, on the single engine otherwise — and returns the end time.
func (pl *Platform) Run() sim.Time {
	if pl.Set != nil {
		return pl.Set.Run()
	}
	return pl.E.Run()
}

// EventsExecuted returns the total executed event count (summed over shards
// for a sharded build; equal to the serial count by construction).
func (pl *Platform) EventsExecuted() uint64 {
	if pl.Set != nil {
		return pl.Set.Executed()
	}
	return pl.E.Executed()
}

package pfs

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// rig is a miniature deployment for package tests.
type rig struct {
	e       *sim.Engine
	fabric  *netsim.Fabric
	fs      *FileSystem
	devs    []storage.Device
	caches  []*storage.WriteCache
	cliHost []*netsim.Host
}

// buildRig assembles nServers servers ("ram" or "hdd" backends) and
// nClientHosts client hosts on a 1.25 GB/s fabric with default server
// parameters.
func buildRig(nServers, nClientHosts int, devKind string, mode SyncMode) *rig {
	return buildRigParams(nServers, nClientHosts, devKind, mode, DefaultServerParams())
}

// buildRigParams is buildRig with explicit server parameters — the way a
// test serializes the flow layer (FlowBufs) or selects a scheduler
// (QoS.Kind). Parameters must be chosen here, at construction: NewServer
// derives the scheduler and the flow-slot count from them, so mutating
// srv.P afterwards has no effect.
func buildRigParams(nServers, nClientHosts int, devKind string, mode SyncMode, sp ServerParams) *rig {
	e := sim.NewEngine()
	fab := netsim.NewFabric(e, netsim.DefaultParams())
	var servers []*Server
	r := &rig{e: e, fabric: fab}
	for i := 0; i < nServers; i++ {
		h := fab.NewHost("server", 1.25e9, 0)
		var dev storage.Device
		switch devKind {
		case "hdd":
			dev = storage.NewHDD(e, storage.DefaultHDD())
		default:
			dev = storage.NewRAM(e, storage.DefaultRAM())
		}
		var cache *storage.WriteCache
		if mode == SyncOff {
			cache = storage.NewWriteCache(e, storage.DefaultCache(), dev)
		}
		servers = append(servers, NewServer(e, i, h, dev, cache, mode, sp))
		r.devs = append(r.devs, dev)
		r.caches = append(r.caches, cache)
	}
	r.fs = NewFileSystem(e, fab, servers)
	for i := 0; i < nClientHosts; i++ {
		r.cliHost = append(r.cliHost, fab.NewHost("client", 1.25e9, 0))
	}
	return r
}

func TestWriteCompletesAndStores(t *testing.T) {
	r := buildRig(2, 1, "ram", SyncOn)
	f := r.fs.CreateFile("shared", nil, 64<<10)
	cl := r.fs.NewClient(r.cliHost[0], 0)
	var took sim.Time
	r.e.Spawn("writer", func(p *sim.Proc) {
		start := p.Now()
		cl.Write(p, f, 0, 1<<20)
		took = p.Now() - start
	})
	r.e.Run()
	if took <= 0 {
		t.Fatal("write did not complete")
	}
	var stored int64
	for _, d := range r.devs {
		stored += d.Stats().Bytes
	}
	if stored != 1<<20 {
		t.Fatalf("stored %d bytes, want %d", stored, 1<<20)
	}
	// Even split across 2 servers for an aligned extent.
	if a, b := r.devs[0].Stats().Bytes, r.devs[1].Stats().Bytes; a != b {
		t.Fatalf("uneven distribution: %d vs %d", a, b)
	}
}

func TestSyncModesRelativeCompletion(t *testing.T) {
	run := func(mode SyncMode) sim.Time {
		r := buildRig(1, 1, "hdd", mode)
		f := r.fs.CreateFile("f", nil, 64<<10)
		cl := r.fs.NewClient(r.cliHost[0], 0)
		var took sim.Time
		r.e.Spawn("w", func(p *sim.Proc) {
			start := p.Now()
			cl.Write(p, f, 0, 32<<20)
			took = p.Now() - start
		})
		r.e.Run()
		return took
	}
	on := run(SyncOn)
	off := run(SyncOff)
	null := run(NullAIO)
	if !(null < off && off < on) {
		t.Fatalf("completion order wrong: null=%v off=%v on=%v", null, off, on)
	}
}

func TestSyncOffStillFlushesInBackground(t *testing.T) {
	r := buildRig(1, 1, "hdd", SyncOff)
	f := r.fs.CreateFile("f", nil, 64<<10)
	cl := r.fs.NewClient(r.cliHost[0], 0)
	r.e.Spawn("w", func(p *sim.Proc) { cl.Write(p, f, 0, 8<<20) })
	r.e.Run()
	if got := r.devs[0].Stats().Bytes; got != 8<<20 {
		t.Fatalf("device received %d bytes, want all %d", got, 8<<20)
	}
	if r.caches[0].Dirty() != 0 {
		t.Fatalf("dirty bytes remain: %d", r.caches[0].Dirty())
	}
}

func TestStridedPaysMoreSeeksThanContiguous(t *testing.T) {
	run := func(strided bool) int64 {
		r := buildRig(4, 1, "hdd", SyncOn)
		f := r.fs.CreateFile("f", nil, 64<<10)
		cl := r.fs.NewClient(r.cliHost[0], 0)
		r.e.Spawn("w", func(p *sim.Proc) {
			if strided {
				// 32 blocks of 256 KB with gaps.
				for i := int64(0); i < 32; i++ {
					cl.Write(p, f, i*512<<10, 256<<10)
				}
			} else {
				cl.Write(p, f, 0, 8<<20)
			}
		})
		r.e.Run()
		var seeks int64
		for _, d := range r.devs {
			seeks += d.Stats().Seeks
		}
		return seeks
	}
	cont := run(false)
	strided := run(true)
	if strided < 4*cont {
		t.Fatalf("strided seeks (%d) not >> contiguous (%d)", strided, cont)
	}
}

func TestTargetedServerSubset(t *testing.T) {
	r := buildRig(4, 1, "ram", SyncOn)
	f := r.fs.CreateFile("f", []int{1, 3}, 64<<10)
	cl := r.fs.NewClient(r.cliHost[0], 0)
	r.e.Spawn("w", func(p *sim.Proc) { cl.Write(p, f, 0, 1<<20) })
	r.e.Run()
	if r.devs[0].Stats().Bytes != 0 || r.devs[2].Stats().Bytes != 0 {
		t.Fatal("untargeted servers received data")
	}
	if r.devs[1].Stats().Bytes+r.devs[3].Stats().Bytes != 1<<20 {
		t.Fatal("targeted servers did not receive all data")
	}
}

func TestReadPathReturnsData(t *testing.T) {
	r := buildRig(2, 1, "ram", SyncOn)
	f := r.fs.CreateFile("f", nil, 64<<10)
	cl := r.fs.NewClient(r.cliHost[0], 0)
	var wrote, read sim.Time
	r.e.Spawn("rw", func(p *sim.Proc) {
		start := p.Now()
		cl.Write(p, f, 0, 2<<20)
		wrote = p.Now() - start
		start = p.Now()
		cl.Read(p, f, 0, 2<<20)
		read = p.Now() - start
	})
	r.e.Run()
	if wrote <= 0 || read <= 0 {
		t.Fatalf("wrote=%v read=%v", wrote, read)
	}
	// The read must have hit the devices.
	var readOps int64
	for _, d := range r.devs {
		readOps += d.Stats().Ops
	}
	if readOps == 0 {
		t.Fatal("no device ops for read")
	}
}

func TestFlowSlotBackpressure(t *testing.T) {
	// More concurrent requests than flow slots: a request backlog must form
	// (the Trove bottleneck) and fully drain by the end.
	sp := DefaultServerParams()
	sp.FlowBufs = 2
	r := buildRigParams(1, 4, "hdd", SyncOn, sp)
	f := r.fs.CreateFile("f", nil, 64<<10)
	srv := r.fs.Servers[0]
	writing := 4
	for i := 0; i < 4; i++ {
		cl := r.fs.NewClient(r.cliHost[i], 0)
		base := int64(i) * (64 << 20)
		r.e.Spawn("w", func(p *sim.Proc) {
			// Each client writes 16 sequential 1 MiB blocks, one at a
			// time: 4 requests at once against 2 flow slots.
			for k := int64(0); k < 16; k++ {
				cl.Write(p, f, base+k<<20, 1<<20)
			}
			writing--
		})
	}
	// A probe samples the backlog every millisecond while the writers run.
	maxQueued := 0
	r.e.Spawn("probe", func(p *sim.Proc) {
		for writing > 0 {
			maxQueued = max(maxQueued, srv.QueuedRequests())
			p.Sleep(sim.Millisecond)
		}
	})
	r.e.Run()
	if maxQueued == 0 {
		t.Fatal("no request backlog ever formed")
	}
	if srv.FreeFlows() != srv.P.FlowBufs {
		t.Fatalf("flow slots leaked: %d free of %d", srv.FreeFlows(), srv.P.FlowBufs)
	}
	if srv.QueuedRequests() != 0 {
		t.Fatalf("request backlog not drained: %d", srv.QueuedRequests())
	}
}

func TestRepliesCounted(t *testing.T) {
	r := buildRig(3, 1, "ram", SyncOn)
	f := r.fs.CreateFile("f", nil, 64<<10)
	cl := r.fs.NewClient(r.cliHost[0], 0)
	r.e.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			cl.Write(p, f, int64(i)<<20, 1<<20)
		}
	})
	r.e.Run()
	var granted int64
	for _, s := range r.fs.Servers {
		granted += s.Tel.App(0).Granted
	}
	// Each 1 MiB write at 64 KiB stripe on 3 servers touches all 3, and each
	// server grants its share of the write one flow slot.
	if granted != 15 {
		t.Fatalf("granted write shares = %d, want 15", granted)
	}
}

// Property: arbitrary batches of writes complete and conserve bytes on the
// devices (sync on, RAM backend).
func TestPropertyWritesConserveBytes(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		r := buildRig(3, 1, "ram", SyncOn)
		file := r.fs.CreateFile("f", nil, 16<<10)
		cl := r.fs.NewClient(r.cliHost[0], 0)
		var want int64
		done := 0
		r.e.Spawn("w", func(p *sim.Proc) {
			off := int64(0)
			for _, s := range sizes {
				size := int64(s) + 1
				want += size
				cl.Write(p, file, off, size)
				off += size + 512 // leave gaps
				done++
			}
		})
		r.e.Run()
		var stored int64
		for _, d := range r.devs {
			stored += d.Stats().Bytes
		}
		return done == len(sizes) && stored == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncModeString(t *testing.T) {
	if SyncOn.String() != "sync-on" || SyncOff.String() != "sync-off" || NullAIO.String() != "null-aio" {
		t.Fatal("SyncMode.String")
	}
	if SyncMode(99).String() != "unknown" {
		t.Fatal("unknown mode")
	}
}

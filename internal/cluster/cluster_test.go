package cluster

import (
	"testing"

	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/storage"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.ComputeNodes = 0 },
		func(c *Config) { c.CoresPerNode = 0 },
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.ClientNIC = 0 },
		func(c *Config) { c.StripeSize = 0 },
		func(c *Config) { c.Backend = Null + 1 },
		func(c *Config) { c.Backend = -1 },
		func(c *Config) { c.Sync = pfs.NullAIO + 1 },
		func(c *Config) { c.Srv.FlowBufSize = 0 },
		func(c *Config) { c.Net.MSS = 0 },
		func(c *Config) { c.Srv.QoS.Kind = qos.RoundRobin + 1 },
		func(c *Config) { c.Srv.QoS.FlowSlots = -1 },
	}
	for i, m := range mods {
		c := Default()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mod %d: invalid config accepted", i)
		}
	}
}

func TestBuildWiresEverything(t *testing.T) {
	cfg := Default()
	cfg.ComputeNodes = 4
	cfg.Servers = 3
	pl := Build(cfg)
	if len(pl.Nodes) != 4 || len(pl.Servers) != 3 || len(pl.Devices) != 3 {
		t.Fatalf("nodes=%d servers=%d devices=%d", len(pl.Nodes), len(pl.Servers), len(pl.Devices))
	}
	for i, s := range pl.Servers {
		if s.ID != i {
			t.Fatalf("server %d has ID %d", i, s.ID)
		}
		if s.Cache != pl.Caches[i] {
			t.Fatalf("server %d does not write through the platform's cache", i)
		}
	}
	// Sync ON: no caches.
	for _, c := range pl.Caches {
		if c != nil {
			t.Fatal("cache built for sync-on config")
		}
	}
	if pl.FS == nil || pl.FS.Rand == nil {
		t.Fatal("file system or jitter source missing")
	}
}

func TestBuildSyncOffHasCaches(t *testing.T) {
	cfg := Default()
	cfg.ComputeNodes = 2
	cfg.Servers = 2
	cfg.Sync = pfs.SyncOff
	pl := Build(cfg)
	for i, c := range pl.Caches {
		if c == nil {
			t.Fatalf("server %d missing write cache", i)
		}
	}
}

func TestNewDeviceKinds(t *testing.T) {
	e := sim.NewEngine()
	for _, b := range []BackendKind{HDD, SSD, RAM, Null} {
		cfg := Default()
		cfg.Backend = b
		d := NewDevice(e, cfg)
		if d == nil {
			t.Fatalf("no device for %v", b)
		}
		if b != Null && d.Name() != b.String() {
			t.Fatalf("device name %q for backend %v", d.Name(), b)
		}
	}
}

func TestParseBackend(t *testing.T) {
	cases := map[string]BackendKind{
		"hdd": HDD, "disk": HDD, "SSD": SSD, "ram": RAM,
		"tmpfs": RAM, "null-aio": Null, "null": Null,
	}
	for s, want := range cases {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseBackend("tape"); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestBackendString(t *testing.T) {
	if HDD.String() != "hdd" || SSD.String() != "ssd" || RAM.String() != "ram" || Null.String() != "null" {
		t.Fatal("backend names")
	}
	if BackendKind(42).String() != "unknown" {
		t.Fatal("unknown backend name")
	}
}

func TestScaleKeepsMinimums(t *testing.T) {
	c := Default().Scale(100)
	if c.ComputeNodes < 2 || c.Servers < 2 || c.CoresPerNode < 1 {
		t.Fatalf("scaled below minimums: %+v", c)
	}
	d := Default()
	if d.Scale(1).ComputeNodes != d.ComputeNodes {
		t.Fatal("scale 1 should be identity")
	}
}

func TestPlatformCounters(t *testing.T) {
	cfg := Default()
	cfg.ComputeNodes = 2
	cfg.Servers = 2
	pl := Build(cfg)
	// Write directly to a device and check the aggregate counter.
	pl.Devices[0].Submit(&storage.Request{File: 1, Offset: 0, Size: 4096})
	pl.E.Run()
	var bytes, timeouts int64
	for _, d := range pl.Devices {
		bytes += d.Stats().Bytes
	}
	for _, c := range pl.Fabric.Conns() {
		timeouts += c.Stats().Timeouts
	}
	if bytes != 4096 {
		t.Fatalf("device bytes = %d", bytes)
	}
	if timeouts != 0 {
		t.Fatalf("TCP timeouts = %d with no traffic", timeouts)
	}
}

package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pfs"
	"repro/internal/workload"
)

func TestParseSizeErr(t *testing.T) {
	good := map[string]int64{
		"64":   64,
		"64K":  64 << 10,
		" 4m ": 4 << 20,
		"2G":   2 << 30,
	}
	for in, want := range good {
		got, err := parseSizeErr(in)
		if err != nil || got != want {
			t.Errorf("parseSizeErr(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	bad := []string{"", "x", "4X", "-1", "0", "-4K", "9999999999G", "1.5M"}
	for _, in := range bad {
		if got, err := parseSizeErr(in); err == nil {
			t.Errorf("parseSizeErr(%q) = %d, want error", in, got)
		}
	}
}

func TestValidateFlags(t *testing.T) {
	type flags struct {
		apps, procs, ppn, nodes, servers, qd int
		delta, clientGb                      float64
	}
	def := flags{apps: 2, procs: 64, ppn: 16, nodes: 8, servers: 4, qd: 1, delta: 0, clientGb: 10}
	cases := []struct {
		name string
		mut  func(*flags)
		want string // "" = valid
	}{
		{"defaults", func(*flags) {}, ""},
		{"one app, delayed", func(f *flags) { f.apps, f.delta = 1, 10 }, ""},
		{"delta at the bound", func(f *flags) { f.delta = 1e6 }, ""},
		{"three apps", func(f *flags) { f.apps = 3 }, "-apps"},
		{"zero procs", func(f *flags) { f.procs = 0 }, "-procs"},
		{"zero ppn", func(f *flags) { f.ppn = 0 }, "-ppn"},
		{"zero nodes", func(f *flags) { f.nodes = 0 }, "-nodes"},
		{"zero servers", func(f *flags) { f.servers = 0 }, "-servers"},
		{"zero qd", func(f *flags) { f.qd = 0 }, "-qd"},
		{"zero client NIC", func(f *flags) { f.clientGb = 0 }, "-clientgbps"},
		{"NaN client NIC", func(f *flags) { f.clientGb = math.NaN() }, "-clientgbps"},
		{"negative delta", func(f *flags) { f.delta = -1 }, "-delta"},
		{"delta past the bound", func(f *flags) { f.delta = 2e6 }, "-delta"},
		{"delta past the clock", func(f *flags) { f.delta = 1e10 }, "-delta"},
		{"NaN delta", func(f *flags) { f.delta = math.NaN() }, "-delta"},
		{"infinite delta", func(f *flags) { f.delta = math.Inf(1) }, "-delta"},
	}
	for _, tc := range cases {
		f := def
		tc.mut(&f)
		err := validateFlags(f.apps, f.procs, f.ppn, f.nodes, f.servers, f.qd, f.delta, f.clientGb)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// TestParseNames pins that -backend, -sync and -pattern accept exactly the
// scenario layer's spellings: a misspelled pattern is an error, not a
// silent contiguous run, and "null" is a backend, not a sync mode.
func TestParseNames(t *testing.T) {
	b, m, p, err := parseNames("SSD", "null-aio", "strided")
	if err != nil || b != cluster.SSD || m != pfs.NullAIO || p != workload.Strided {
		t.Fatalf("parseNames(SSD, null-aio, strided) = %v, %v, %v, %v", b, m, p, err)
	}
	if _, m, p, err = parseNames("hdd", "off", "contiguous"); err != nil || m != pfs.SyncOff || p != workload.Contiguous {
		t.Fatalf("parseNames(hdd, off, contiguous) = %v, %v, %v", m, p, err)
	}
	bad := []struct{ backend, sync, pattern, want string }{
		{"floppy", "on", "contiguous", "-backend"},
		{"hdd", "null", "contiguous", "-sync"},
		{"hdd", "maybe", "contiguous", "valid: on, off, null-aio"},
		{"hdd", "on", "bogus", "-pattern"},
		{"hdd", "on", "stride", "valid: contiguous, strided"},
	}
	for _, tc := range bad {
		_, _, _, err := parseNames(tc.backend, tc.sync, tc.pattern)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseNames(%q, %q, %q) = %v, want an error naming %q",
				tc.backend, tc.sync, tc.pattern, err, tc.want)
		}
	}
}

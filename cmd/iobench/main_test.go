package main

import (
	"math"
	"strings"
	"testing"
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

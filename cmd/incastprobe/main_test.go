package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	type flags struct {
		nodes, servers int
		delta          float64
		app            int
	}
	def := flags{nodes: 8, servers: 2, delta: 0, app: 1}
	cases := []struct {
		name string
		mut  func(*flags)
		want string // "" = valid
	}{
		{"defaults", func(*flags) {}, ""},
		{"first app, delayed", func(f *flags) { f.app, f.delta = 0, 10 }, ""},
		{"delta at the bound", func(f *flags) { f.delta = 1e6 }, ""},
		{"one node", func(f *flags) { f.nodes = 1 }, "-nodes"},
		{"zero servers", func(f *flags) { f.servers = 0 }, "-servers"},
		{"third app", func(f *flags) { f.app = 2 }, "-app"},
		{"negative app", func(f *flags) { f.app = -1 }, "-app"},
		{"negative delta", func(f *flags) { f.delta = -1 }, "-delta"},
		{"delta past the bound", func(f *flags) { f.delta = 2e6 }, "-delta"},
		{"delta past the clock", func(f *flags) { f.delta = 1e10 }, "-delta"},
		{"NaN delta", func(f *flags) { f.delta = math.NaN() }, "-delta"},
		{"infinite delta", func(f *flags) { f.delta = math.Inf(1) }, "-delta"},
	}
	for _, tc := range cases {
		f := def
		tc.mut(&f)
		err := validateFlags(f.nodes, f.servers, f.delta, f.app)
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

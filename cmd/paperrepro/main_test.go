package main

import (
	"strings"
	"testing"

	"repro/internal/paper"
)

func TestValidateFlags(t *testing.T) {
	type in struct {
		format string
		scale  int
	}
	good := in{"ascii", 1}
	cases := []struct {
		name   string
		mut    func(*in)
		wantOK bool
	}{
		{"defaults", func(*in) {}, true},
		{"tsv", func(i *in) { i.format = "tsv" }, true},
		{"scaled", func(i *in) { i.scale = 16 }, true},
		{"csv format", func(i *in) { i.format = "csv" }, false},
		{"empty format", func(i *in) { i.format = "" }, false},
		{"upper-case format", func(i *in) { i.format = "TSV" }, false},
		{"zero scale", func(i *in) { i.scale = 0 }, false},
		{"negative scale", func(i *in) { i.scale = -8 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			i := good
			tc.mut(&i)
			err := validateFlags(i.format, i.scale)
			if (err == nil) != tc.wantOK {
				t.Fatalf("validateFlags(%+v) = %v, want ok=%v", i, err, tc.wantOK)
			}
		})
	}
}

// TestAblationPolicyTable pins the scheduling ablation's table at -scale 8
// in TSV: FIFO against the two coordinated orders, the only command output
// that reaches qos.AppOrdered and qos.RoundRobin. EXPERIMENTS.md quotes
// its unfairness column.
func TestAblationPolicyTable(t *testing.T) {
	const want = "# Ablation: server scheduling policy (contig, HDD sync ON, delta=+10s)\n" +
		"policy\tA_s\tB_s\tunfairness\n" +
		"fifo (PVFS)\t27.958\t39.255\t1.404\n" +
		"app-ordered\t27.958\t39.255\t0.956\n" +
		"round-robin\t42.156\t39.255\t0.931\n" +
		"\n"
	var b strings.Builder
	if err := newRunner(&b, "tsv", 8, paper.GridFull).one("ablation-policy"); err != nil {
		t.Fatal(err)
	}
	got, _, _ := strings.Cut(b.String(), "# ablation-policy done in") // the timing line varies
	if got != want {
		t.Fatalf("ablation-policy table changed:\ngot\n%s\nwant\n%s", got, want)
	}
}

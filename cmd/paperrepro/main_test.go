package main

import "testing"

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

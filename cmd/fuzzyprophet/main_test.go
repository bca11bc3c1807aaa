package main

import "testing"

func TestFormatOutcomes(t *testing.T) {
	for _, c := range []struct {
		counts map[string]int
		want   string
	}{
		{nil, "computed=0 cached=0 identity=0 affine=0"},
		{map[string]int{"computed": 106}, "computed=106 cached=0 identity=0 affine=0"},
		{map[string]int{"affine": 2, "cached": 53, "identity": 40, "computed": 11}, "computed=11 cached=53 identity=40 affine=2"},
	} {
		if got := formatOutcomes(c.counts); got != c.want {
			t.Errorf("formatOutcomes(%v) = %q, want %q", c.counts, got, c.want)
		}
	}
}

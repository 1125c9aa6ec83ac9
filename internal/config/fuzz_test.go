package config

import (
	"slices"
	"testing"
)

// FuzzParseClusterSpecs: parsing never panics, and an accepted spec
// string renders through SpecsString to a string that parses back to
// the same clusters. Run it with
//
//	go test -fuzz=FuzzParseClusterSpecs ./internal/config
//
// The seed corpus in testdata/fuzz/FuzzParseClusterSpecs covers every
// optional suffix, a repeat the renderer merges with its neighbour,
// overrides equal to the derived default, the cluster-count limit, a
// value one past its range and padded segments.
func FuzzParseClusterSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParseClusterSpecs(s)
		if err != nil {
			return
		}
		again, err := ParseClusterSpecs(SpecsString(specs))
		if err != nil {
			t.Fatalf("%q parses, its rendering %q does not: %v", s, SpecsString(specs), err)
		}
		if !slices.Equal(again, specs) {
			t.Fatalf("%q parses to %+v, its rendering %q to %+v", s, specs, SpecsString(specs), again)
		}
	})
}

package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCensus runs the census over a fixture module with one identifier per
// rule and checks which of them it reports.
func TestCensus(t *testing.T) {
	root := filepath.Join("testdata", "census")
	got, err := census(root, map[string]string{"fixture/internal/lib.Kept": "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	reported := func(name string) bool {
		for _, p := range got {
			if strings.Contains(p, " "+name+" has no non-test user") {
				return true
			}
		}
		return false
	}
	for _, c := range []struct {
		why, name string
		want      bool
	}{
		{"an orphan", "lib.Orphan", true},
		{"a use from a test file", "lib.TestOnly", true},
		{"a method that satisfies an interface", "lib.Base.String", false},
		{"a keep-listed identifier", "lib.Kept", false},
		{"a generic type used through an instantiation", "lib.Box", false},
		{"a field of an instantiation", "lib.Box.V", false},
		{"a method of an instantiation", "lib.Box.Get", false},
	} {
		if reported(c.name) != c.want {
			t.Errorf("%s: %s reported %v, want %v", c.why, c.name, !c.want, c.want)
		}
	}
	if len(got) != 2 {
		t.Errorf("census reported %d identifiers, want 2:\n%s", len(got), strings.Join(got, "\n"))
	}
}

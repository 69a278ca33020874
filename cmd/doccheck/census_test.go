package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCensus runs the census over a fixture module with one identifier per
// case of each rule and checks which of them it reports.
func TestCensus(t *testing.T) {
	root := filepath.Join("testdata", "census")
	got, err := census(root, map[string]string{
		"fixture/internal/lib.Kept":               "fixture",
		"fixture/internal/lib.Options.KeptOption": "fixture",
	})
	if err != nil {
		t.Fatal(err)
	}
	reported := func(report string) bool {
		for _, p := range got {
			if strings.Contains(p, report) {
				return true
			}
		}
		return false
	}
	unused := func(name string) string { return " " + name + " has no non-test user" }
	unset := func(name string) string { return " option " + name + " is set by no non-test file" }
	undocumented := func(name string) string { return " series " + name + " is registered but" }
	stale := func(name string) string { return " series " + name + " has a row but" }
	for _, c := range []struct {
		why, report string
		want        bool
	}{
		{"an orphan", unused("lib.Orphan"), true},
		{"a use from a test file", unused("lib.TestOnly"), true},
		{"a method that satisfies an interface", unused("lib.Base.String"), false},
		{"a keep-listed identifier", unused("lib.Kept"), false},
		{"a generic type used through an instantiation", unused("lib.Box"), false},
		{"a field of an instantiation", unused("lib.Box.V"), false},
		{"a method of an instantiation", unused("lib.Box.Get"), false},
		{"an option set only by a test file", unset("lib.Options.TestSet"), true},
		{"an option set only by its own package's defaulting", unset("lib.Options.Defaulted"), true},
		{"an option set by another package's non-test file", unset("lib.Options.Set"), false},
		{"an option set through &x.F", unset("lib.Options.Addressed"), false},
		{"a keep-listed option", unset("lib.Options.KeptOption"), false},
		{"a registered series no doc names", undocumented("fixture_undocumented_total"), true},
		{"a registered series a doc names", undocumented("fixture_documented_total"), false},
		{"a docs row of a series nothing registers", stale("fixture_stale_total"), true},
		{"a docs row of a registered series", stale("fixture_documented_total"), false},
		{"a sleep in the engine", "internal/core/core.go:9: time.Sleep in the engine", true},
	} {
		if reported(c.report) != c.want {
			t.Errorf("%s: %q reported %v, want %v", c.why, c.report, !c.want, c.want)
		}
	}
	// Not in an engine test, nor outside the engine (lib's String).
	if sleeps := strings.Count(strings.Join(got, "\n"), "time.Sleep"); sleeps != 1 {
		t.Errorf("census reported %d sleeps, want the engine's one", sleeps)
	}
	if len(got) != 7 {
		t.Errorf("census reported %d problems, want 7:\n%s", len(got), strings.Join(got, "\n"))
	}
}

// TestRunLanes checks the lanes of a fixture Makefile and CI workflow:
// of the -run alternatives there only the one that names no test of its
// packages is reported — a live name, a prefix, a word inside names, a lane
// over a tree and a pattern from a variable are not.
func TestRunLanes(t *testing.T) {
	got := checkRunLanes(filepath.Join("testdata", "runlanes"))
	if len(got) != 1 || !strings.Contains(got[0], `Makefile:4: -run alternative "TestGone" names no test`) {
		t.Errorf("reported %q, want TestGone's lane alone", got)
	}
}

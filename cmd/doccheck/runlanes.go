package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// laneFiles are the files whose `go test -run` lanes checkRunLanes reads,
// relative to the repository root.
var laneFiles = []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")}

var (
	// runFlag captures a -run pattern, quoted or bare.
	runFlag = regexp.MustCompile(`-run[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)
	// testFunc captures the name of a top-level test function.
	testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)
)

// checkRunLanes reports every alternative of a `go test -run` pattern in
// the lane files that names no test of the packages its command line lists.
// Such a lane skips what it was written to run and still passes: a test
// renamed or folded away leaves its name behind in the pattern. An
// alternative matches as go test matches it, unanchored, so a prefix such
// as TestThrottle or a word such as Alloc names a group. Patterns built
// from make or shell variables, and command lines that list no ./ package,
// are not checked.
func checkRunLanes(root string) []string {
	var problems []string
	for _, rel := range laneFiles {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		lines := strings.Split(string(data), "\n")
		for i := 0; i < len(lines); i++ {
			// A line continued with a backslash is one command with the next.
			start, line := i+1, lines[i]
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, "\\") + " " + lines[i]
			}
			if !strings.Contains(line, "go test") {
				continue
			}
			m := runFlag.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern := m[1] + m[2] + m[3]
			if strings.Contains(pattern, "$") {
				continue
			}
			tests, listed := laneTests(root, strings.Fields(line))
			if !listed {
				continue
			}
			for _, alt := range strings.Split(strings.SplitN(pattern, "/", 2)[0], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: -run alternative %q is not a regular expression: %v", rel, start, alt, err))
					continue
				}
				if !matchesAny(re, tests) {
					problems = append(problems, fmt.Sprintf("%s:%d: -run alternative %q names no test in its packages", rel, start, alt))
				}
			}
		}
	}
	return problems
}

// laneTests lists the test functions of the packages named by the ./
// arguments among args (a trailing /... takes the directories below too),
// and reports whether there are any.
func laneTests(root string, args []string) (tests []string, listed bool) {
	for _, a := range args {
		if !strings.HasPrefix(a, "./") {
			continue
		}
		listed = true
		dir, recursive := strings.CutSuffix(a, "/...")
		dir = filepath.Join(root, dir)
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return nil
			}
			if d.IsDir() {
				if path != dir && (!recursive || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(data), -1) {
				tests = append(tests, m[1])
			}
			return nil
		})
	}
	return tests, listed
}

// matchesAny reports whether re matches one of names.
func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

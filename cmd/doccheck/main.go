// Command doccheck keeps the documentation honest. It walks the
// repository and fails when either
//
//   - a markdown file contains a relative (intra-repo) link whose target
//     file does not exist — dead links accumulate silently as files move
//     across PRs; or
//   - a command-line flag registered in cmd/ never appears in any
//     markdown file — every knob must be documented somewhere (README.md,
//     DESIGN.md or docs/).
//
// make doccheck runs it as part of make check and CI.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// mdLink matches inline markdown links and captures the target. Images
// and reference-style definitions are close enough in shape that the
// same pattern covers them.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// flagDef matches direct flag registrations (flag.String("name", ...));
// flagVarDef matches the pointer variants (flag.StringVar(&v, "name",
// ...)). Only the name argument is captured — defaults and usage strings
// must not leak into the inventory.
var (
	flagDef    = regexp.MustCompile(`flag\.(?:String|Int64|Int|Bool|Duration|Float64|Uint64|Uint)\(\s*"([^"]+)"`)
	flagVarDef = regexp.MustCompile(`flag\.(?:String|Int64|Int|Bool|Duration|Float64|Uint64|Uint)Var\(\s*&?[\w.\[\]]+,\s*"([^"]+)"`)
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkLinks(root)...)
	problems = append(problems, checkFlags(root)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doccheck:", p)
		}
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// markdownFiles returns every tracked .md file under root, skipping the
// git metadata directory.
func markdownFiles(root string) []string {
	var out []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			out = append(out, path)
		}
		return nil
	})
	return out
}

// checkLinks verifies every relative markdown link resolves to an
// existing file or directory. External schemes, pure anchors and
// placeholder targets generated into bench/trace output paths are out of
// scope.
func checkLinks(root string) []string {
	var problems []string
	for _, md := range markdownFiles(root) {
		data, err := os.ReadFile(md)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", md, err))
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			// Templated or generated names (CAMPAIGN_<name>.json) cannot be
			// checked against the working tree.
			if strings.ContainsAny(target, "<>*$") {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: dead link %q (no such file %s)", md, m[1], resolved))
			}
		}
	}
	return problems
}

// checkFlags verifies every flag registered in cmd/ is mentioned, as
// "-name", in the user-facing documentation set: README.md, DESIGN.md,
// EXPERIMENTS.md and docs/. Work-tracking files (ISSUE.md, CHANGES.md,
// ROADMAP.md) do not count as documentation.
func checkFlags(root string) []string {
	var docs strings.Builder
	for _, md := range markdownFiles(root) {
		rel, err := filepath.Rel(root, md)
		if err != nil {
			rel = md
		}
		switch {
		case strings.HasPrefix(rel, "docs"+string(filepath.Separator)):
		case rel == "README.md" || rel == "DESIGN.md" || rel == "EXPERIMENTS.md":
		default:
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			continue
		}
		docs.Write(data)
		docs.WriteByte('\n')
	}
	corpus := docs.String()

	var problems []string
	_ = filepath.WalkDir(filepath.Join(root, "cmd"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		src := string(data)
		seen := map[string]bool{}
		for _, re := range []*regexp.Regexp{flagVarDef, flagDef} {
			for _, m := range re.FindAllStringSubmatch(src, -1) {
				name := m[1]
				if seen[name] {
					continue
				}
				seen[name] = true
				if !strings.Contains(corpus, "-"+name) {
					problems = append(problems, fmt.Sprintf("%s: flag -%s is documented nowhere (add it to README.md or docs/)", path, name))
				}
			}
		}
		return nil
	})
	return problems
}

// Package doclint keeps the prose honest: it checks the README's
// command-line flag tables against the actual flag definitions in
// cmd/*/main.go (both directions — no undocumented flags, no documented
// ghosts) and verifies that relative markdown links point at files that
// exist, and that CI's fuzz smoke runs every fuzz target under internal/.
// It runs as an ordinary test (and as CI's docs-lint step), so
// documentation drift fails the build instead of accumulating.
package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// flagFuncs are the flag-package constructors whose first argument names a
// flag. The *Var forms take the name second; the commands don't use them,
// and Flags errors if one appears so the lint can be taught rather than
// silently miss a flag.
var flagFuncs = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"String": true, "Float64": true, "Duration": true,
}

var flagVarFuncs = map[string]bool{
	"BoolVar": true, "IntVar": true, "Int64Var": true, "UintVar": true,
	"Uint64Var": true, "StringVar": true, "Float64Var": true,
	"DurationVar": true, "Var": true, "Func": true,
}

// Flags parses a command's main.go and returns the names of every flag it
// defines via flag.X("name", ...), sorted.
func Flags(mainPath string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, mainPath, nil, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	var walkErr error
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "flag" {
			return true
		}
		if flagVarFuncs[sel.Sel.Name] {
			walkErr = fmt.Errorf("%s: flag.%s is not supported by doclint; use the value-returning form or extend the lint",
				mainPath, sel.Sel.Name)
			return false
		}
		if !flagFuncs[sel.Sel.Name] || len(call.Args) == 0 {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		names = append(names, name)
		return true
	})
	if walkErr != nil {
		return nil, walkErr
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no flag definitions found", mainPath)
	}
	sort.Strings(names)
	return names, nil
}

var (
	headingRE  = regexp.MustCompile("^#+\\s")
	flagCellRE = regexp.MustCompile("^\\|\\s*`-([A-Za-z0-9][A-Za-z0-9-]*)`")
)

// ReadmeFlags extracts the flag names documented for one command: the
// first cell of each table row under the heading "### `command`", up to
// the next heading. Returned sorted.
func ReadmeFlags(markdown, command string) ([]string, error) {
	lines := strings.Split(markdown, "\n")
	start := -1
	want := fmt.Sprintf("### `%s`", command)
	for i, l := range lines {
		if strings.TrimSpace(l) == want {
			start = i + 1
			break
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("readme: no %q section", want)
	}
	var names []string
	for _, l := range lines[start:] {
		if headingRE.MatchString(l) {
			break
		}
		if m := flagCellRE.FindStringSubmatch(strings.TrimSpace(l)); m != nil {
			names = append(names, m[1])
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("readme: %q section has no flag rows", command)
	}
	sort.Strings(names)
	return names, nil
}

// CheckFlags compares the README flag table of each command under
// repoRoot/cmd against its main.go, both directions.
func CheckFlags(repoRoot string) error {
	md, err := os.ReadFile(filepath.Join(repoRoot, "README.md"))
	if err != nil {
		return err
	}
	cmds, err := filepath.Glob(filepath.Join(repoRoot, "cmd", "*", "main.go"))
	if err != nil {
		return err
	}
	if len(cmds) == 0 {
		return fmt.Errorf("doclint: no cmd/*/main.go under %s", repoRoot)
	}
	var problems []string
	for _, mainPath := range cmds {
		command := filepath.Base(filepath.Dir(mainPath))
		defined, err := Flags(mainPath)
		if err != nil {
			return err
		}
		documented, err := ReadmeFlags(string(md), command)
		if err != nil {
			return err
		}
		for _, missing := range diff(defined, documented) {
			problems = append(problems, fmt.Sprintf(
				"%s: flag -%s is defined in %s but missing from the README table", command, missing, mainPath))
		}
		for _, ghost := range diff(documented, defined) {
			problems = append(problems, fmt.Sprintf(
				"%s: README documents -%s, which %s does not define", command, ghost, mainPath))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("doclint:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// diff returns the elements of a missing from b (both sorted).
func diff(a, b []string) []string {
	have := make(map[string]bool, len(b))
	for _, s := range b {
		have[s] = true
	}
	var out []string
	for _, s := range a {
		if !have[s] {
			out = append(out, s)
		}
	}
	return out
}

// linkRE matches inline markdown links [text](target). Images, reference
// links and autolinks are out of scope.
var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// codeRE matches fenced code blocks and inline code spans, where markdown
// renders brackets literally: `funcPow[k](mrg)` is OCAL, not a link.
var codeRE = regexp.MustCompile("(?s)```.*?```|`[^`\n]*`")

// CheckLinks verifies that every relative link in the given markdown files
// resolves to an existing file or directory (fragments are stripped;
// absolute URLs, pure-fragment links and anything inside code are skipped).
// Paths are resolved against each file's directory.
func CheckLinks(mdPaths ...string) error {
	var problems []string
	for _, p := range mdPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range linkRE.FindAllStringSubmatch(codeRE.ReplaceAllString(string(data), ""), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(p), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q (%s)", p, m[1], resolved))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("doclint:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

var (
	fuzzFuncRE  = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	fuzzSmokeRE = regexp.MustCompile(`^go test -fuzz=(\w+) .*\./(internal/[\w/]*\w)/?$`)
)

// CheckFuzzSmoke compares the fuzz targets in the test files under
// repoRoot/internal with the `go test -fuzz=Name ... ./internal/pkg/` lines
// of .github/workflows/ci.yml, both directions: a target CI never fuzzes is
// only a unit test of its seed corpus, and a line naming no target fuzzes
// nothing without failing.
func CheckFuzzSmoke(repoRoot string) error {
	var defined, listed []string // "internal/pkg FuzzName"
	err := filepath.WalkDir(filepath.Join(repoRoot, "internal"), func(path string, _ fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(repoRoot, filepath.Dir(path))
		for _, m := range fuzzFuncRE.FindAllSubmatch(src, -1) {
			defined = append(defined, filepath.ToSlash(pkg)+" "+string(m[1]))
		}
		return err
	})
	if err != nil {
		return err
	}
	if len(defined) == 0 {
		return fmt.Errorf("doclint: no fuzz targets under %s", filepath.Join(repoRoot, "internal"))
	}
	ci, err := os.ReadFile(filepath.Join(repoRoot, ".github", "workflows", "ci.yml"))
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(ci), "\n") {
		if m := fuzzSmokeRE.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			listed = append(listed, m[2]+" "+m[1])
		}
	}
	sort.Strings(defined)
	sort.Strings(listed)
	var problems []string
	for _, missing := range diff(defined, listed) {
		problems = append(problems, fmt.Sprintf("fuzz target %s is missing from ci.yml's fuzz smoke", missing))
	}
	for _, ghost := range diff(listed, defined) {
		problems = append(problems, fmt.Sprintf("ci.yml fuzzes %s, which no test file under internal/ defines", ghost))
	}
	if len(problems) > 0 {
		return fmt.Errorf("doclint:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// Package doclint keeps the prose honest: it checks the README's
// command-line flag tables against the actual flag definitions in
// cmd/*/main.go (both directions — no undocumented flags, no documented
// ghosts), verifies that relative markdown links point at files and
// headings that exist, holds the README, ARCHITECTURE.md and the verify
// skill to line budgets, to no PR-number history and to flags their
// binaries define (CI's command lines too), and checks that CI's fuzz
// smoke runs every fuzz target under internal/.
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
	"slices"
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
// resolves to an existing file or directory, and that a #fragment on a link
// to a markdown file (or on a pure-fragment link, against its own file)
// names one of that file's headings under GitHub's slug rules. Absolute
// URLs and anything inside code are skipped. Paths are resolved against
// each file's directory.
func CheckLinks(mdPaths ...string) error {
	var problems []string
	anchors := map[string]map[string]bool{} // markdown file -> heading slugs
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
			target, frag, _ := strings.Cut(target, "#")
			resolved := p
			if target != "" {
				resolved = filepath.Join(filepath.Dir(p), target)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("%s: broken link %q (%s)", p, m[1], resolved))
					continue
				}
			}
			if frag == "" || !strings.HasSuffix(resolved, ".md") {
				continue
			}
			if anchors[resolved] == nil {
				md, err := os.ReadFile(resolved)
				if err != nil {
					return err
				}
				anchors[resolved] = headingSlugs(string(md))
			}
			if !anchors[resolved][frag] {
				problems = append(problems, fmt.Sprintf("%s: link %q names no heading of %s", p, m[1], resolved))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("doclint:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

var (
	fenceRE    = regexp.MustCompile("^\\s*```")
	slugDropRE = regexp.MustCompile(`[^\p{L}\p{M}\p{N}\p{Pc} -]`)
)

// headingSlugs returns the fragment GitHub gives each heading of a markdown
// document: the heading's text with links reduced to their text, lowercased,
// every character other than a letter, digit, space, hyphen or underscore
// dropped, and each space turned into a hyphen; a repeated slug gets -1, -2,
// and so on. Headings inside fenced code are not headings.
func headingSlugs(markdown string) map[string]bool {
	slugs := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, l := range strings.Split(markdown, "\n") {
		if fenceRE.MatchString(l) {
			inFence = !inFence
			continue
		}
		if inFence || !headingRE.MatchString(l) {
			continue
		}
		text := strings.TrimSpace(strings.TrimLeft(l, "#"))
		text = linkRE.ReplaceAllStringFunc(text, func(link string) string {
			return link[1:strings.Index(link, "](")]
		})
		slug := strings.ReplaceAll(slugDropRE.ReplaceAllString(strings.ToLower(text), ""), " ", "-")
		if n := seen[slug]; n > 0 {
			seen[slug] = n + 1
			slug = fmt.Sprintf("%s-%d", slug, n)
		} else {
			seen[slug] = 1
		}
		slugs[slug] = true
	}
	return slugs
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
	ci, err := os.ReadFile(filepath.Join(repoRoot, ciWorkflow))
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

// ciWorkflow is CI's workflow file, relative to the repository root.
const ciWorkflow = ".github/workflows/ci.yml"

// proseFiles are the documents CheckProse holds to its rules, relative to
// the repository root: the front door, the design, and the verify recipe.
var proseFiles = []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

// The line budgets CheckProse enforces: the README alone, and proseFiles
// together.
const (
	readmeBudget = 300
	proseBudget  = 1000
)

var (
	prRefRE     = regexp.MustCompile(`\bPRs?\s+\d+`)
	fenceOpenRE = regexp.MustCompile("(?m)^[ \\t]*```[ \\t]*(\\w*).*$")
	goRunCmdRE  = regexp.MustCompile(`^(?:\./)?cmd/([\w-]+)/?$`)
	flagWordRE  = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)(?:=|$)`)
	envAssignRE = regexp.MustCompile(`^[A-Za-z_]\w*=`)
)

// CheckProse holds proseFiles under repoRoot to three rules: no PR-number
// history (that lives in CHANGES.md), no flag on a fenced shell command
// line running a cmd/* binary (by path or as go run ./cmd/NAME) that the
// binary's main.go does not define, and the line budgets. The flag rule
// holds for the command lines of CI's run steps too, so a flag a command
// has lost fails here, not on a hosted runner.
func CheckProse(repoRoot string) error {
	mains, err := filepath.Glob(filepath.Join(repoRoot, "cmd", "*", "main.go"))
	if err != nil {
		return err
	}
	if len(mains) == 0 {
		return fmt.Errorf("doclint: no cmd/*/main.go under %s", repoRoot)
	}
	defined := map[string]map[string]bool{} // command -> its flags
	for _, mainPath := range mains {
		names, err := Flags(mainPath)
		if err != nil {
			return err
		}
		set := map[string]bool{}
		for _, n := range names {
			set[n] = true
		}
		defined[filepath.Base(filepath.Dir(mainPath))] = set
	}
	var problems []string
	total := 0
	for _, rel := range proseFiles {
		data, err := os.ReadFile(filepath.Join(repoRoot, rel))
		if err != nil {
			return err
		}
		text := string(data)
		lines := strings.Count(text, "\n")
		total += lines
		if rel == "README.md" && lines > readmeBudget {
			problems = append(problems, fmt.Sprintf("%s: %d lines, over its budget of %d", rel, lines, readmeBudget))
		}
		for _, loc := range prRefRE.FindAllStringIndex(text, -1) {
			problems = append(problems, fmt.Sprintf("%s:%d: %q is history; it belongs in CHANGES.md",
				rel, 1+strings.Count(text[:loc[0]], "\n"), text[loc[0]:loc[1]]))
		}
		for _, block := range shellBlocks(text) {
			problems = append(problems, undefinedFlagsIn(rel, block, defined)...)
		}
	}
	ci, err := os.ReadFile(filepath.Join(repoRoot, ciWorkflow))
	if err != nil {
		return err
	}
	for _, step := range runScripts(string(ci)) {
		problems = append(problems, undefinedFlagsIn(ciWorkflow, step, defined)...)
	}
	if total > proseBudget {
		problems = append(problems, fmt.Sprintf("%s: %d lines together, over the budget of %d",
			strings.Join(proseFiles, " + "), total, proseBudget))
	}
	if len(problems) > 0 {
		return fmt.Errorf("doclint:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// runScripts returns the shell of each run step of a workflow: the value
// of a one-line `run:`, or the lines indented under `run: |`.
func runScripts(workflow string) []shellBlock {
	lines := strings.Split(workflow, "\n")
	indent := func(l string) int { return len(l) - len(strings.TrimLeft(l, " ")) }
	var steps []shellBlock
	for i := 0; i < len(lines); i++ {
		value, ok := strings.CutPrefix(strings.TrimLeft(lines[i], " -"), "run:")
		if !ok {
			continue
		}
		value = strings.TrimSpace(value)
		if value != "|" {
			steps = append(steps, shellBlock{line: i + 1, text: value})
			continue
		}
		end := i + 1
		for end < len(lines) && (strings.TrimSpace(lines[end]) == "" || indent(lines[end]) > indent(lines[i])) {
			end++
		}
		steps = append(steps, shellBlock{line: i + 2, text: strings.Join(lines[i+1:end], "\n")})
		i = end - 1
	}
	return steps
}

// undefinedFlagsIn runs undefinedFlags over every command of one block of
// shell. A command that only assigns variables (ARGS="-json -prog q.ocal")
// defines them for the rest of the block, and a later word that is exactly
// $NAME or ${NAME} stands for the words of NAME's value, so flags passed
// through a variable are checked where the command uses them.
func undefinedFlagsIn(file string, block shellBlock, defined map[string]map[string]bool) []string {
	var problems []string
	vars := map[string][]string{}
	for _, cmd := range commands(block.text) {
		if !slices.ContainsFunc(cmd.words, func(w string) bool { return !envAssignRE.MatchString(w) }) {
			for _, w := range cmd.words {
				name, value, _ := strings.Cut(w, "=")
				vars[name] = strings.Fields(value)
			}
			continue
		}
		var words []string
		for _, w := range cmd.words {
			name, ok := strings.CutPrefix(w, "$")
			if ok && strings.HasPrefix(name, "{") && strings.HasSuffix(name, "}") {
				name = name[1 : len(name)-1]
			}
			if value, set := vars[name]; ok && set {
				words = append(words, value...)
			} else {
				words = append(words, w)
			}
		}
		problems = append(problems, undefinedFlags(file, block.line+cmd.line, words, defined)...)
	}
	return problems
}

// undefinedFlags reports each -flag of one simple command that runs a binary
// of defined but is not among its flags. line is the command's first line.
func undefinedFlags(file string, line int, words []string, defined map[string]map[string]bool) []string {
	for len(words) > 0 && (words[0] == "!" || words[0] == "time" || envAssignRE.MatchString(words[0])) {
		words = words[1:]
	}
	if len(words) == 0 {
		return nil
	}
	command, args := filepath.Base(words[0]), words[1:]
	if words[0] == "go" && len(args) > 0 && args[0] == "run" {
		command, args = "", args[1:]
		for i, w := range args {
			if !strings.HasPrefix(w, "-") {
				if m := goRunCmdRE.FindStringSubmatch(w); m != nil {
					command, args = m[1], args[i+1:]
				}
				break
			}
		}
	}
	flags, ok := defined[command]
	if !ok {
		return nil
	}
	var problems []string
	for _, w := range args {
		if m := flagWordRE.FindStringSubmatch(w); m != nil && !flags[m[1]] {
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no flag -%s", file, line, command, m[1]))
		}
	}
	return problems
}

type shellBlock struct {
	line int // 1-based line of the block's first content line
	text string
}

// shellBlocks returns the fenced code blocks of a markdown document whose
// info string is empty or names a shell.
func shellBlocks(markdown string) []shellBlock {
	var blocks []shellBlock
	fences := fenceOpenRE.FindAllStringSubmatchIndex(markdown, -1)
	for i := 0; i+1 < len(fences); i += 2 {
		opening, closing := fences[i], fences[i+1]
		switch markdown[opening[2]:opening[3]] {
		case "", "sh", "bash", "shell", "console":
			start := min(opening[1]+1, closing[0])
			blocks = append(blocks, shellBlock{
				line: 1 + strings.Count(markdown[:start], "\n"),
				text: markdown[start:closing[0]],
			})
		}
	}
	return blocks
}

type command struct {
	line  int // 0-based line within the block
	words []string
}

// commands splits shell text into simple commands: words with quotes
// removed (a backslash escaping the next byte inside double quotes), cut
// at newlines, |, &, ; and comments, a backslash-newline and a redirection
// being a space. It understands what the documents' and CI's command lines
// use, not all of sh.
func commands(text string) []command {
	var out []command
	var words []string
	var word strings.Builder
	inWord, line, start := false, 0, 0
	endWord := func() {
		if inWord {
			words = append(words, word.String())
		}
		word.Reset()
		inWord = false
	}
	endCmd := func() {
		endWord()
		if len(words) > 0 {
			out = append(out, command{start, words})
		}
		words = nil
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if !inWord && len(words) == 0 {
			start = line
		}
		switch {
		case c == '\\' && i+1 < len(text):
			i++
			if text[i] == '\n' {
				line++
				endWord()
			} else {
				word.WriteByte(text[i])
				inWord = true
			}
		case c == '\'' || c == '"':
			for i++; i < len(text) && text[i] != c; i++ {
				if c == '"' && text[i] == '\\' && i+1 < len(text) {
					i++
				}
				if text[i] == '\n' {
					line++
				}
				word.WriteByte(text[i])
			}
			inWord = true
		case c == '#' && !inWord:
			for i+1 < len(text) && text[i+1] != '\n' {
				i++
			}
		case c == '\n' || c == '|' || c == '&' || c == ';':
			endCmd()
			if c == '\n' {
				line++
			}
		case c == ' ' || c == '\t' || c == '>' || c == '<':
			endWord()
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	endCmd()
	return out
}

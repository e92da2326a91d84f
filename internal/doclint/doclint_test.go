package doclint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const repoRoot = "../.."

// TestReadmeFlagTablesMatchCommands is the docs lint CI runs: every flag
// defined by cmd/{ocas,ocasd,ocasbench} must appear in the README's
// command-line flag tables, and vice versa.
func TestReadmeFlagTablesMatchCommands(t *testing.T) {
	if err := CheckFlags(repoRoot); err != nil {
		t.Fatal(err)
	}
}

// TestMarkdownLinksResolve checks every relative link and anchor in the
// top-level markdown files and the verify skill against the filesystem.
func TestMarkdownLinksResolve(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join(repoRoot, "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 3 {
		t.Fatalf("implausibly few top-level markdown files: %v", docs)
	}
	docs = append(docs, filepath.Join(repoRoot, ".claude", "skills", "verify", "SKILL.md"))
	if err := CheckLinks(docs...); err != nil {
		t.Fatal(err)
	}
}

// TestProseRules holds README.md, ARCHITECTURE.md and the verify skill to
// CheckProse: no PR-number history, no command line using a flag its binary
// lacks, and the line budgets.
func TestProseRules(t *testing.T) {
	if err := CheckProse(repoRoot); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzTargetsInCISmoke: CI's fuzz smoke runs every fuzz target under
// internal/, and every target it names exists.
func TestFuzzTargetsInCISmoke(t *testing.T) {
	if err := CheckFuzzSmoke(repoRoot); err != nil {
		t.Fatal(err)
	}
}

// TestCheckProseFindsStaleCIFlags: CI's one-line and block run steps are
// held to the flag rule, and an escaped quote inside double quotes does not
// hide the command after it.
func TestCheckProseFindsStaleCIFlags(t *testing.T) {
	root := proseRepo(t, "# Tool\n")
	ci := "jobs:\n  smoke:\n    steps:\n" +
		"      - run: /tmp/tool -in x -gone\n" +
		"      - name: a block\n" +
		"        run: |\n" +
		"          tool -in x \\\n" +
		"            -run &\n" +
		"          GOMAXPROCS=1 tool -ghost=1\n" +
		"          curl -d \"{\\\"k\\\": 1}\" url\n" +
		"          tool -late\n" +
		"      - run: echo -gone\n"
	if err := os.WriteFile(filepath.Join(root, ciWorkflow), []byte(ci), 0o644); err != nil {
		t.Fatal(err)
	}
	err := CheckProse(root)
	if err == nil {
		t.Fatal("undefined flags in CI must be reported")
	}
	for _, want := range []string{
		".github/workflows/ci.yml:4: tool has no flag -gone",
		".github/workflows/ci.yml:9: tool has no flag -ghost",
		".github/workflows/ci.yml:11: tool has no flag -late",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report lacks %q:\n%v", want, err)
		}
	}
	if n := strings.Count(err.Error(), "has no flag"); n != 3 {
		t.Errorf("%d problems reported, want 3 (echo is no command of the repository, -in and -run are defined):\n%v", n, err)
	}
}

// TestCheckProseExpandsArgs: flags that a run step assigns to a variable,
// continuation lines included, are checked where a command passes them as
// $NAME or ${NAME}; a name the step never assigns stays a word.
func TestCheckProseExpandsArgs(t *testing.T) {
	root := proseRepo(t, "# Tool\n")
	ci := "jobs:\n  smoke:\n    steps:\n" +
		"      - run: |\n" +
		"          ARGS=\"-in x \\\n" +
		"            -run -gone\"\n" +
		"          echo $ARGS\n" +
		"          GOMAXPROCS=1 /tmp/tool $ARGS -in y\n" +
		"          tool ${ARGS}\n" +
		"          tool $OTHER\n" +
		"      - run: tool $ARGS\n"
	if err := os.WriteFile(filepath.Join(root, ciWorkflow), []byte(ci), 0o644); err != nil {
		t.Fatal(err)
	}
	err := CheckProse(root)
	if err == nil {
		t.Fatal("an undefined flag passed through $ARGS must be reported")
	}
	for _, want := range []string{
		".github/workflows/ci.yml:8: tool has no flag -gone",
		".github/workflows/ci.yml:9: tool has no flag -gone",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report lacks %q:\n%v", want, err)
		}
	}
	if n := strings.Count(err.Error(), "has no flag"); n != 2 {
		t.Errorf("%d problems reported, want 2 (echo is no command of the repository, a variable is the step's own):\n%v", n, err)
	}
}

func TestCheckFuzzSmokeFindsBothDirections(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/a/b/x_test.go", "package b\n\nfunc FuzzListed(f *testing.F) {}\n\nfunc FuzzUnlisted(f *testing.F) {}\n")
	write("internal/a/y.go", "package a\n\nfunc FuzzNotATest(f *testing.F) {}\n")
	write(".github/workflows/ci.yml", "    run: |\n"+
		"      go test -fuzz=FuzzListed -fuzztime=30s ./internal/a/b/\n"+
		"      go test -fuzz=FuzzGone -fuzztime=30s ./internal/a\n")
	err := CheckFuzzSmoke(root)
	if err == nil {
		t.Fatal("an unlisted target and a listed ghost must be reported")
	}
	for _, want := range []string{"internal/a/b FuzzUnlisted is missing", "fuzzes internal/a FuzzGone"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report lacks %q:\n%v", want, err)
		}
	}
	if strings.Contains(err.Error(), "FuzzListed") || strings.Contains(err.Error(), "FuzzNotATest") {
		t.Errorf("report flags a listed target or a non-test file:\n%v", err)
	}
}

func TestFlagsExtraction(t *testing.T) {
	dir := t.TempDir()
	src := `package main

import "flag"

func main() {
	_ = flag.String("prog", "", "program")
	_ = flag.Int("depth", 6, "depth")
	b := flag.Bool("run", false, "run")
	_ = b
}
`
	path := filepath.Join(dir, "main.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Flags(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"depth", "prog", "run"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Flags = %v, want %v", got, want)
	}
}

func TestFlagsRejectsVarForms(t *testing.T) {
	dir := t.TempDir()
	src := `package main

import "flag"

var v string

func main() {
	flag.StringVar(&v, "hidden", "", "invisible to the lint table parser")
}
`
	path := filepath.Join(dir, "main.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Flags(path); err == nil {
		t.Fatal("flag.StringVar must be rejected until the lint understands it")
	}
}

func TestReadmeFlagsSectionParsing(t *testing.T) {
	md := "# Title\n\n### `mycmd`\n\n| Flag | Default | Purpose |\n| --- | --- | --- |\n| `-alpha` | 1 | a |\n| `-beta-x` | | b |\n\n### `other`\n\n| `-gamma` | | c |\n"
	got, err := ReadmeFlags(md, "mycmd")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta-x"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadmeFlags = %v, want %v", got, want)
	}
	if _, err := ReadmeFlags(md, "absent"); err == nil {
		t.Fatal("missing section must error")
	}
}

func TestCheckLinksFindsBrokenOnes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "real.md"), []byte("# Frag\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(dir, "doc.md")
	ok := "# Anchor\n[a](real.md) [b](https://example.com/x) [c](#anchor) [d](real.md#frag) " +
		"`funcPow[k](mrg)`\n```\nz[n](missing)\n```\n"
	if err := os.WriteFile(doc, []byte(ok), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckLinks(doc); err != nil {
		t.Fatalf("good links flagged: %v", err)
	}
	if err := os.WriteFile(doc, []byte("[a](missing.md)"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckLinks(doc); err == nil {
		t.Fatal("broken link must be reported")
	}
}

func TestCheckLinksFindsBrokenAnchors(t *testing.T) {
	dir := t.TempDir()
	target := "# Durable tables: catalog and segments\n```\n# Not a heading\n```\n## `ocas` flags\n## Tables & ingestion\n## Repeat\n## Repeat\n"
	if err := os.WriteFile(filepath.Join(dir, "target.md"), []byte(target), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(dir, "doc.md")
	ok := "# Local [head](target.md)\n[a](target.md#durable-tables-catalog-and-segments) [b](target.md#ocas-flags) " +
		"[c](target.md#tables--ingestion) [d](target.md#repeat-1) [e](#local-head) [f](. #x)\n"
	if err := os.WriteFile(doc, []byte(ok), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckLinks(doc); err != nil {
		t.Fatalf("good anchors flagged: %v", err)
	}
	for _, bad := range []string{"target.md#durable-tables", "target.md#not-a-heading", "target.md#repeat-2", "#nowhere"} {
		if err := os.WriteFile(doc, []byte("[a]("+bad+")"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CheckLinks(doc); err == nil {
			t.Errorf("link to %s must be reported", bad)
		}
	}
}

// proseRepo writes a repository with one command, cmd/tool, defining -in
// and -run, the three prose files (README.md holding readme) and an empty
// CI workflow, and returns its root.
func proseRepo(t *testing.T, readme string) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"cmd/tool/main.go":               "package main\n\nimport \"flag\"\n\nfunc main() {\n\t_ = flag.String(\"in\", \"\", \"\")\n\t_ = flag.Bool(\"run\", false, \"\")\n}\n",
		"README.md":                      readme,
		"ARCHITECTURE.md":                "# Design\n",
		".claude/skills/verify/SKILL.md": "# Verify\n",
		ciWorkflow:                       "",
	}
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestCheckProseFindsPRReferences(t *testing.T) {
	if err := CheckProse(proseRepo(t, "# Tool\n\nA PRO 7 is not a reference.\n")); err != nil {
		t.Fatalf("clean prose flagged: %v", err)
	}
	err := CheckProse(proseRepo(t, "# Tool\n\nSince PR 12 it runs.\nAs PRs\n31 said.\n"))
	if err == nil {
		t.Fatal("PR references must be reported")
	}
	for _, want := range []string{"README.md:3: \"PR 12\"", "README.md:4: \"PRs\\n31\""} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report lacks %s:\n%v", want, err)
		}
	}
}

func TestCheckProseFindsUndefinedFlags(t *testing.T) {
	ok := "# Tool\n\n```sh\ngo run ./cmd/tool -in x --run=true | grep -v -q y  # -nope\n" +
		"/tmp/tool -in x \\\n  -run 2>&1 > out.txt\ncurl -d '-nope' tool\n```\n\n```go\ntool -nope\n```\n" +
		"Prose may say `tool -nope`.\n"
	if err := CheckProse(proseRepo(t, ok)); err != nil {
		t.Fatalf("defined flags flagged: %v", err)
	}
	bad := "# Tool\n\n```\nGOMAXPROCS=1 ./tool -in x \\\n  -gone\ngo run -race ./cmd/tool/ -in y; ! tool -ghost=1\n```\n"
	err := CheckProse(proseRepo(t, bad))
	if err == nil {
		t.Fatal("undefined flags must be reported")
	}
	for _, want := range []string{"README.md:4: tool has no flag -gone", "README.md:6: tool has no flag -ghost"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report lacks %q:\n%v", want, err)
		}
	}
	if strings.Contains(err.Error(), "-in") {
		t.Errorf("a defined flag is reported:\n%v", err)
	}
}

func TestCheckProseFindsBrokenBudgets(t *testing.T) {
	lines := func(n int) string { return strings.Repeat("x\n", n) }
	if err := CheckProse(proseRepo(t, lines(readmeBudget))); err != nil {
		t.Fatalf("a README at its budget flagged: %v", err)
	}
	err := CheckProse(proseRepo(t, lines(readmeBudget+1)))
	if err == nil || !strings.Contains(err.Error(), "README.md: 301 lines") {
		t.Fatalf("a README over its budget must be reported, got %v", err)
	}
	root := proseRepo(t, lines(readmeBudget))
	arch := filepath.Join(root, "ARCHITECTURE.md")
	if err := os.WriteFile(arch, []byte(lines(proseBudget-readmeBudget)), 0o644); err != nil {
		t.Fatal(err)
	}
	err = CheckProse(root)
	if err == nil || !strings.Contains(err.Error(), "1001 lines together") {
		t.Fatalf("prose over its joint budget must be reported, got %v", err)
	}
}

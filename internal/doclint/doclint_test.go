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

// TestMarkdownLinksResolve checks every relative link in the top-level
// markdown files against the filesystem.
func TestMarkdownLinksResolve(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join(repoRoot, "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 3 {
		t.Fatalf("implausibly few top-level markdown files: %v", docs)
	}
	if err := CheckLinks(docs...); err != nil {
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
	if err := os.WriteFile(filepath.Join(dir, "real.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(dir, "doc.md")
	ok := "[a](real.md) [b](https://example.com/x) [c](#anchor) [d](real.md#frag) " +
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

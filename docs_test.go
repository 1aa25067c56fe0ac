package rgb

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/rgbproto/rgb/internal/experiment"
)

// mdLink matches inline markdown links/images: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinks is the documentation gate run by CI's docs job: every
// intra-repo link in the top-level markdown files and docs/ must
// resolve to an existing file. External links (http/https/mailto) and
// pure in-page anchors are skipped; anchors on intra-repo links are
// stripped before the existence check.
func TestDocLinks(t *testing.T) {
	var files []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) < 5 {
		t.Fatalf("only %d markdown files found — glob broken?", len(files))
	}

	checked := 0
	for _, file := range files {
		if file == "ISSUE.md" {
			continue // the per-PR task statement: quotes link syntax as prose
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken intra-repo link %q (resolved %s)", file, m[1], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no intra-repo links checked — matcher broken?")
	}
	t.Logf("checked %d intra-repo links across %d files", checked, len(files))
}

// toolRef matches a mention of a binary or example by its directory:
// cmd/<name> or examples/<name>.
var toolRef = regexp.MustCompile(`\b(cmd|examples)/([A-Za-z0-9_-]+)`)

// TestDocCommands is the gate for tool names in prose, which
// TestDocLinks cannot see: every cmd/<name> and examples/<name> the
// living documentation mentions must be an existing directory, and
// every binary under cmd/ must have a row in README's command table.
// The history files (CHANGES.md, ROADMAP.md, ISSUE.md) legitimately
// name deleted tools and are not read.
func TestDocCommands(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PERF.md", ".claude/skills/verify/SKILL.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)

	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range toolRef.FindAllStringSubmatch(string(data), -1) {
			if info, err := os.Stat(filepath.Join(m[1], m[2])); err != nil || !info.IsDir() {
				t.Errorf("%s: mentions %s, which is not a directory", file, m[0])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no tool mentions checked — matcher broken?")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	inTable := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| `") {
			for _, m := range toolRef.FindAllStringSubmatch(line, -1) {
				inTable[m[0]] = true
			}
		}
	}
	bins, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		if name := "cmd/" + b.Name(); b.IsDir() && !inTable[name] {
			t.Errorf("README.md: command table has no row for %s", name)
		}
	}
}

// testRef matches a test named with its package directory in
// backquotes: `internal/experiment.TestCompareTableIRows`.
var testRef = regexp.MustCompile("`((?:internal|cmd)/[A-Za-z0-9_/]+)\\.(Test[A-Za-z0-9_]+)`")

// TestDocClaims is the gate for EXPERIMENTS.md's claims ledger: one row
// per Table I row and per Table II cell, each naming at least one test
// that exists. It also checks that the Table I console block is what
// `rgbsweep -compare table1` prints today.
func TestDocClaims(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	rows := map[string]int{}
	for _, line := range strings.Split(doc, "\n") {
		var table string
		switch {
		case strings.HasPrefix(line, "| Table I "):
			table = "Table I"
		case strings.HasPrefix(line, "| Table II "):
			table = "Table II"
		default:
			continue
		}
		rows[table]++
		refs := testRef.FindAllStringSubmatch(line, -1)
		if len(refs) == 0 {
			t.Errorf("EXPERIMENTS.md: ledger row names no test: %s", line)
		}
		for _, m := range refs {
			if !testExists(t, m[1], m[2]) {
				t.Errorf("EXPERIMENTS.md: ledger names %s.%s, which does not exist", m[1], m[2])
			}
		}
	}
	if rows["Table I"] != 6 || rows["Table II"] != 18 {
		t.Errorf("EXPERIMENTS.md: ledger has %d Table I rows and %d Table II rows, want 6 and 18", rows["Table I"], rows["Table II"])
	}

	_, block, ok := strings.Cut(doc, "$ go run ./cmd/rgbsweep -compare table1\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md: no Table I console block")
	}
	block, _, _ = strings.Cut(block, "```")
	// The block opens with the command's title line and a blank line,
	// which rgbsweep prints before the table.
	got := strings.Split(strings.TrimRight(block, "\n"), "\n")
	if len(got) < 2 {
		t.Fatal("EXPERIMENTS.md: Table I console block has no table")
	}
	got = got[2:]
	want := strings.Split(strings.TrimRight(experiment.TableIText(experiment.CompareTableI(0, 1)), "\n"), "\n")
	for i := range want {
		want[i] = strings.TrimRight(want[i], " ")
	}
	if !slices.Equal(got, want) {
		t.Errorf("EXPERIMENTS.md: Table I console block\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// testExists reports whether a test file of the package in dir declares
// the named test.
func testExists(t *testing.T, dir, name string) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	decl := "\nfunc " + name + "(t *testing.T) {"
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), decl) {
			return true
		}
	}
	return false
}

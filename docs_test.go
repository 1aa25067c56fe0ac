package rgb

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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

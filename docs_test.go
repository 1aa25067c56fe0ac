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

// TestCIRunPatterns is the gate for the test names CI's workflow
// selects: every alternative of a go test command's -run pattern, and
// its -fuzz target, must name a test, example or fuzz target that the
// packages the command runs declare. A renamed or deleted test would
// otherwise leave its CI step running nothing and passing.
func TestCIRunPatterns(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, cmd := range ciCommands(string(data)) {
		args := shellWords(cmd)
		i := slices.Index(args, "test")
		if i < 1 || args[i-1] != "go" {
			continue
		}
		var run, fuzz, dir string
		var pkgs []string
		for j := i + 1; j < len(args); j++ {
			flag, value, hasValue := strings.Cut(args[j], "=")
			switch flag {
			case "-run", "-fuzz", "-C":
				if !hasValue && j+1 < len(args) {
					j++
					value = args[j]
				}
				switch flag {
				case "-run":
					run = value
				case "-fuzz":
					fuzz = value
				default:
					dir = value
				}
			default:
				if args[j] == "." || strings.HasPrefix(args[j], "./") {
					pkgs = append(pkgs, filepath.Join(dir, args[j]))
				}
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("ci.yml: %q names no package", cmd)
			continue
		}
		names := declaredTests(t, pkgs)
		var alts []string
		if first := splitTopLevel(run, '/')[0]; first != "" && first != "^$" {
			alts = splitTopLevel(first, '|')
		}
		if fuzz != "" {
			alts = append(alts, fuzz)
		}
		for _, alt := range alts {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: %q: %v", cmd, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml: %q: %q names no test in %v", cmd, alt, pkgs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -fuzz pattern checked — parser broken?")
	}
	t.Logf("checked %d -run alternatives and -fuzz targets", checked)
}

// ciCommands returns the shell commands of a workflow's run: keys: a
// one-line value, each line of a literal (|) block, and a folded (>)
// block joined into one line.
func ciCommands(yml string) []string {
	var cmds []string
	lines := strings.Split(yml, "\n")
	for i := 0; i < len(lines); i++ {
		_, value, ok := strings.Cut(lines[i], "run: ")
		if !ok || strings.TrimSpace(lines[i])[0] == '#' {
			continue
		}
		value = strings.TrimSpace(value)
		if value != "|" && value != ">" {
			cmds = append(cmds, value)
			continue
		}
		indent := len(lines[i]) - len(strings.TrimLeft(lines[i], " "))
		var block []string
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			i++
			if line := strings.TrimSpace(next); line != "" {
				block = append(block, line)
			}
		}
		if value == ">" {
			block = []string{strings.Join(block, " ")}
		}
		cmds = append(cmds, block...)
	}
	return cmds
}

// shellWords splits a command into words, honouring single and double
// quotes (the workflow uses no escapes).
func shellWords(cmd string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range cmd {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

// splitTopLevel splits a pattern at each sep outside parentheses and
// brackets, as go test splits -run into levels and alternatives.
func splitTopLevel(pattern string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, pattern[start:i])
			start = i + 1
		}
	}
	return append(parts, pattern[start:])
}

// testDecl matches a test, fuzz target or example declaration.
var testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)[A-Za-z0-9_]*)\(`)

// declaredTests lists the tests, fuzz targets and examples declared in
// the _test.go files of the given package patterns (a trailing /...
// takes every package below).
func declaredTests(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	add := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testDecl.FindAllStringSubmatch(string(data), -1) {
				names = append(names, m[1])
			}
		}
	}
	for _, pkg := range pkgs {
		root, recursive := strings.CutSuffix(pkg, "...")
		if !recursive {
			add(pkg)
			continue
		}
		err := filepath.WalkDir(filepath.Clean(root), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if d.IsDir() {
				add(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

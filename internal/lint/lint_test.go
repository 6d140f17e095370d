package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture tests: each testdata/<analyzer> tree is type-checked with
// LoadFixtureDir and run through the suite; expectations live in the
// fixtures as comments of the form
//
//	// want `regexp` [`regexp` ...]     diagnostics expected on this line
//	// want+1 `regexp` [...]            ... on the following line
//
// (want+1 exists for lines that are themselves full-line comments, such as
// //lint:ignore directives). Every diagnostic must match a want on its line
// and every want must be matched, so both false positives and false
// negatives fail the test.

var wantArgRe = regexp.MustCompile("`([^`]*)`")

type wantKey struct {
	file string
	line int
}

type expectation struct {
	re  *regexp.Regexp
	src string
	hit bool
}

func collectWants(t *testing.T, prog *Program) map[wantKey][]*expectation {
	t.Helper()
	wants := make(map[wantKey][]*expectation)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					bump := 0
					switch {
					case strings.HasPrefix(text, "want+1 "):
						bump = 1
					case strings.HasPrefix(text, "want "):
					default:
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					ms := wantArgRe.FindAllStringSubmatch(text, -1)
					if len(ms) == 0 {
						t.Fatalf("%s:%d: want comment without a backquoted regexp", pos.Filename, pos.Line)
					}
					for _, m := range ms {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						k := wantKey{pos.Filename, pos.Line + bump}
						wants[k] = append(wants[k], &expectation{re: re, src: m[1]})
					}
				}
			}
		}
	}
	return wants
}

func checkFixture(t *testing.T, prog *Program, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, prog)
	for _, d := range diags {
		p := prog.Fset.Position(d.Pos)
		k := wantKey{p.Filename, p.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", p.Filename, p.Line, d.Analyzer, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w.src)
			}
		}
	}
}

func runFixture(t *testing.T, dir string, analyzers []Analyzer) {
	t.Helper()
	prog, err := LoadFixtureDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, prog, Run(prog, analyzers))
}

// TestFixtures runs each analyzer alone over testdata/<name>, so an
// analyzer without a fixture fails here.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			runFixture(t, a.Name, []Analyzer{a})
		})
	}
}

// TestSuppressions runs the whole suite so //lint:ignore handling — matched,
// stale, unknown-analyzer and malformed directives — is exercised through
// the same Run path the driver uses.
func TestSuppressions(t *testing.T) {
	runFixture(t, "suppress", All())
}

func TestAnalyzerNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %d has an empty name or doc", i)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

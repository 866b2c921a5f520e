package lint

import (
	"bytes"
	"fmt"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// wantRe extracts the quoted expectation patterns of one // want
// comment, analysistest style: // want `re` "re" ...
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// golden runs every analyzer over one testdata package and matches the
// diagnostics against its // want comments line by line.
func golden(t *testing.T, name string) []Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(dir, "golden/"+name)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	diags := Run([]*Package{pkg}, DefaultPolicy())

	// Collect want expectations: (file base, line) -> patterns.
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				for _, q := range wantRe.FindAllString(rest, -1) {
					pat := strings.Trim(q, "`")
					if q[0] == '"' {
						if u, err := strconv.Unquote(q); err == nil {
							pat = u
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					k := key{filepath.Base(pos.Filename), pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		k := key{filepath.Base(d.File), d.Line}
		rendered := fmt.Sprintf("[%s] %s", d.Check, d.Message)
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(rendered) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic %s:%d: %s", k.file, k.line, rendered)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
		if len(wants[k]) == 0 {
			delete(wants, k)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("missing diagnostic at %s:%d matching %q", k.file, k.line, re)
		}
	}
	return diags
}

func TestWallclockGolden(t *testing.T)  { golden(t, "wallclock") }
func TestGlobalrandGolden(t *testing.T) { golden(t, "globalrand") }
func TestErrwrapGolden(t *testing.T)    { golden(t, "errwrap") }
func TestGoctxGolden(t *testing.T)      { golden(t, "goctx") }
func TestPoolreturnGolden(t *testing.T) { golden(t, "poolreturn") }
func TestLockorderGolden(t *testing.T)  { golden(t, "lockorder") }
func TestLockheldGolden(t *testing.T)   { golden(t, "lockheld") }

// TestGoldenExitStatus asserts each negative fixture would fail a lint
// run — the acceptance criterion that remoslint demonstrably exits 1 on
// each analyzer's golden cases.
func TestGoldenExitStatus(t *testing.T) {
	for _, name := range []string{"wallclock", "globalrand", "errwrap", "goctx",
		"poolreturn", "lockorder", "lockheld", "allow"} {
		pkg, err := LoadDir(filepath.Join("testdata", "src", name), "golden/"+name)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if diags := Run([]*Package{pkg}, DefaultPolicy()); len(diags) == 0 {
			t.Errorf("%s fixture produced no findings; a lint run over it would exit 0", name)
		}
	}
}

// TestAllowDirectives pins the directive verifier's behaviour: the
// expectations are listed here because a want comment cannot share a
// line with a line-comment directive.
func TestAllowDirectives(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "allow"), "golden/allow")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, DefaultPolicy())
	type want struct {
		line  int
		check string
		re    string
	}
	wants := []want{
		{10, "allow", `unknown check "nonsense"`},
		{13, "allow", `carries no reason`},
		{16, "allow", `unused allow directive for wallclock`},
		{25, "wallclock", `direct time\.Now`},
	}
	if len(diags) != len(wants) {
		t.Errorf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if d.Line == w.line && d.Check == w.check && regexp.MustCompile(w.re).MatchString(d.Message) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic at line %d [%s] matching %q", w.line, w.check, w.re)
		}
	}
	// The suppressed fallback (line 21) must not appear.
	for _, d := range diags {
		if d.Line == 21 {
			t.Errorf("directive at line 20 failed to suppress: %v", d)
		}
	}
}

var repo struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadRepo loads the repository's module once for every test that
// audits it.
func loadRepo(t *testing.T) []*Package {
	t.Helper()
	repo.once.Do(func() {
		repo.pkgs, repo.err = LoadModule(repoRoot(t))
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	if len(repo.pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d); loader lost the module", len(repo.pkgs))
	}
	return repo.pkgs
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestRepoLintClean asserts the repository itself passes every
// analyzer: the fix sweep stays fixed, and regressions fail the suite
// even before CI runs make lint.
func TestRepoLintClean(t *testing.T) {
	pkgs := loadRepo(t)
	root := repoRoot(t)
	for _, d := range Run(pkgs, DefaultPolicy()) {
		t.Errorf("%s", d)
	}

	// Pinned: the live allow directives, by file and check. Excusing one
	// more site (or any clock read: wallclock has none) means amending
	// this table, in review, not a longer -allows listing nobody reads.
	want := map[string]int{
		"internal/proto/ascii.go lockheld":  2,
		"internal/proto/watch.go goctx":     1,
		"internal/proto/xmlhttp.go goctx":   1,
		"internal/snmp/agent.go poolreturn": 1,
		"internal/snmp/transport.go goctx":  1,
	}
	got := make(map[string]int)
	for _, a := range Allows(pkgs) {
		rel, err := filepath.Rel(root, a.File)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.ToSlash(rel)+" "+a.Check]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("live allow directives = %v, want exactly %v", got, want)
	}
}

// TestDesignTableMatchesChecks keeps DESIGN.md §10 honest: the rows of
// its two per-check tables (first cell a backticked check name) are
// exactly the analyzers that exist.
func TestDesignTableMatchesChecks(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(repoRoot(t), "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 10. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 10")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]int)
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]]++
	}
	for check := range knownChecks {
		if rows[check] != 2 {
			t.Errorf("check %s has %d rows in DESIGN.md §10, want one in the invariant table and one in the audit", check, rows[check])
		}
	}
	for name := range rows {
		if !knownChecks[name] {
			t.Errorf("DESIGN.md §10 has a row for %s, which is not an analyzer", name)
		}
	}
}

// TestRaceHotListsMatch keeps the Makefile's race-hot target and CI's
// race-hot matrix (one cell per package) on the same package list.
func TestRaceHotListsMatch(t *testing.T) {
	root := repoRoot(t)
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	_, target, ok := strings.Cut(string(mk), "\nrace-hot:\n")
	if !ok {
		t.Fatal("Makefile has no race-hot target")
	}
	target, _, _ = strings.Cut(target, "\n\n")
	var fromMake []string
	for _, f := range strings.Fields(target) {
		if strings.HasPrefix(f, ".") {
			fromMake = append(fromMake, f)
		}
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "verify.yml"))
	if err != nil {
		t.Fatal(err)
	}
	_, job, ok := strings.Cut(string(ci), "\n  race-hot:\n")
	if !ok {
		t.Fatal("verify.yml has no race-hot job")
	}
	job, _, _ = strings.Cut(job, "steps:")
	var fromCI []string
	for _, line := range strings.Split(job, "\n") {
		if pkg, ok := strings.CutPrefix(strings.TrimSpace(line), "- "); ok {
			fromCI = append(fromCI, pkg)
		}
	}
	sort.Strings(fromMake)
	sort.Strings(fromCI)
	if len(fromMake) == 0 || !reflect.DeepEqual(fromMake, fromCI) {
		t.Errorf("race-hot lists differ:\nMakefile:   %v\nverify.yml: %v", fromMake, fromCI)
	}
}

// TestPoolReturnCoversEveryPool keeps poolreturn's package list equal to
// the packages that hold a sync.Pool, so a pool added to a package the
// analyzer does not audit cannot lose its Puts unnoticed.
func TestPoolReturnCoversEveryPool(t *testing.T) {
	var pooling []string
	for _, pkg := range loadRepo(t) {
		for _, obj := range pkg.TypesInfo.Uses {
			if tn, ok := obj.(*types.TypeName); ok && tn.Name() == "Pool" && tn.Pkg() != nil && tn.Pkg().Path() == "sync" {
				pooling = append(pooling, pkg.Name)
				break
			}
		}
	}
	var audited []string
	for name := range DefaultPolicy().PoolReturn {
		audited = append(audited, name)
	}
	sort.Strings(pooling)
	sort.Strings(audited)
	if len(pooling) == 0 || !reflect.DeepEqual(pooling, audited) {
		t.Errorf("poolreturn audits %v, the packages holding a sync.Pool are %v", audited, pooling)
	}
}

// TestFuzzSmokeListsEveryTarget keeps the Makefile's fuzz-smoke target
// equal to the fuzz targets in the module (nested modules and testdata
// excluded), so a new target cannot be left out of CI's smoke run and a
// deleted one cannot linger in it.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	root := repoRoot(t)
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	_, target, ok := strings.Cut(string(mk), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	target, _, _ = strings.Cut(target, "\n\n")
	var fromMake []string
	for _, line := range strings.Split(target, "\n") {
		f := strings.Fields(line)
		if i := slices.Index(f, "-fuzz"); i >= 0 && i+1 < len(f) {
			fromMake = append(fromMake, path.Clean(f[len(f)-1])+" "+f[i+1])
		}
	}

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	var fromCode []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			fromCode = append(fromCode, filepath.ToSlash(dir)+" "+string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(fromMake)
	sort.Strings(fromCode)
	if len(fromCode) == 0 || !reflect.DeepEqual(fromMake, fromCode) {
		t.Errorf("fuzz-smoke does not list the module's fuzz targets:\nMakefile: %v\nmodule:   %v", fromMake, fromCode)
	}
}

// TestAllows pins the -allows audit listing over the allow fixture: the
// two well-formed directives appear with their reasons; the malformed
// ones are findings, not audit rows.
func TestAllows(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "allow"), "golden/allow")
	if err != nil {
		t.Fatal(err)
	}
	allows := Allows([]*Package{pkg})
	if len(allows) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(allows), allows)
	}
	for _, a := range allows {
		if a.Check != "wallclock" || a.Reason == "" || a.Line == 0 {
			t.Errorf("malformed audit row: %+v", a)
		}
	}
	if allows[0].Line >= allows[1].Line {
		t.Errorf("audit rows not sorted by line: %+v", allows)
	}
}

func TestParseVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   []verb
	}{
		{"plain", nil},
		{"%v", []verb{{'v', 0}}},
		{"a %d b %s", []verb{{'d', 0}, {'s', 1}}},
		{"%q: %w", []verb{{'q', 0}, {'w', 1}}},
		{"100%% %v", []verb{{'v', 0}}},
		{"%-8.3f %v", []verb{{'f', 0}, {'v', 1}}},
		{"%*d %v", []verb{{'d', 1}, {'v', 2}}},
		{"%[2]s %[1]s", []verb{{'s', 1}, {'s', 0}}},
	}
	for _, c := range cases {
		got := parseVerbs(c.format)
		if len(got) != len(c.want) {
			t.Errorf("parseVerbs(%q) = %v, want %v", c.format, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseVerbs(%q)[%d] = %v, want %v", c.format, i, got[i], c.want[i])
			}
		}
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	err := WriteText(&buf, []Diagnostic{
		{File: "x/y.go", Line: 12, Col: 1, Check: "goctx", Message: "no signal"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "x/y.go:12: [goctx] no signal\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
}

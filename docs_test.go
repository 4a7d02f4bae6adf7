// Docs-freshness guard: command-line flags, the study registry and the
// documentation pages must not drift apart silently. The tests parse every
// cmd/* main.go for flag declarations and assert the README mentions each
// flag, pin the existence of the architecture and topology-spec docs and
// their links from the README, hold the study registry
// (internal/experiment) against everything derived from it, require every
// Markdown file a Go comment cites to exist, every Go file, identifier
// and internal package the documentation cites, and a row of the panic
// audit for every function that calls panic.
package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/topology"
)

// flagDeclRe matches the name argument of flag.String(...), flag.BoolVar-style
// declarations included.
var flagDeclRe = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Float64|Duration)(?:Var)?\(\s*(?:&[\w.]+,\s*)?"([^"]+)"`)

// declaredFlags parses every cmd/*/main.go for its flag declarations, in
// declaration order, keyed by command name; a command without flags has no
// key.
func declaredFlags(t *testing.T) map[string][]string {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no cmd/*/main.go found; the guard is looking in the wrong place")
	}
	out := map[string][]string{}
	for _, main := range mains {
		src, err := os.ReadFile(main)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(main))
		for _, d := range flagDeclRe.FindAllStringSubmatch(string(src), -1) {
			out[cmd] = append(out[cmd], d[1])
		}
	}
	return out
}

func TestREADMEDocumentsCommandFlags(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	declared := declaredFlags(t)
	for _, cmd := range slices.Sorted(maps.Keys(declared)) {
		if !strings.Contains(doc, "cmd/"+cmd) {
			t.Errorf("README does not mention cmd/%s, which declares flags", cmd)
			continue
		}
		for _, name := range declared[cmd] {
			if !strings.Contains(doc, "-"+name) {
				t.Errorf("README does not document flag -%s of cmd/%s", name, cmd)
			}
		}
	}
}

var (
	// flagRowRe matches a row of the README's Command flags table, and
	// rowFlagRe a flag the row lists.
	flagRowRe = regexp.MustCompile("(?m)^\\| `cmd/(\\w+)` \\|(.*)$")
	rowFlagRe = regexp.MustCompile("`-([\\w-]+)`")
	// goRunRe matches a `go run ./cmd/X …` invocation up to a comment, a
	// closing backtick or the end of its line, and runFlagRe a flag it
	// passes.
	goRunRe   = regexp.MustCompile("go run \\./cmd/(\\w+)([^#`\\n]*)")
	runFlagRe = regexp.MustCompile(`(?:^|[\s\[])-([A-Za-z][\w-]*)`)
)

// TestREADMEFlagsAreDeclared is the reverse of
// TestREADMEDocumentsCommandFlags: every flag that the Command flags row of
// cmd/X lists, or that a `go run ./cmd/X …` line passes, is declared by
// cmd/X, so deleting a flag cannot leave its documentation behind.
func TestREADMEFlagsAreDeclared(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	declared := declaredFlags(t)
	rows := flagRowRe.FindAllStringSubmatch(doc, -1)
	if len(rows) == 0 {
		t.Fatal("README has no Command flags row; the guard is reading the wrong table")
	}
	for _, row := range rows {
		for _, f := range rowFlagRe.FindAllStringSubmatch(row[2], -1) {
			if !slices.Contains(declared[row[1]], f[1]) {
				t.Errorf("README's Command flags row of cmd/%s lists -%s, which cmd/%s does not declare", row[1], f[1], row[1])
			}
		}
	}
	for _, run := range goRunRe.FindAllStringSubmatch(doc, -1) {
		for _, f := range runFlagRe.FindAllStringSubmatch(run[2], -1) {
			if !slices.Contains(declared[run[1]], f[1]) {
				t.Errorf("README runs %q with -%s, which cmd/%s does not declare", strings.TrimSpace(run[0]), f[1], run[1])
			}
		}
	}
}

func TestREADMELinksDocs(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"docs/ARCHITECTURE.md", "docs/TOPOLOGY_SPECS.md", "docs/SCHEDULER.md"} {
		if _, err := os.Stat(doc); err != nil {
			t.Errorf("%s missing: %v", doc, err)
		}
		if !strings.Contains(string(readme), doc) {
			t.Errorf("README does not link %s", doc)
		}
	}
}

// TestAblateFlagHelpMatchesREADME drives the -exp flag's usage string the
// same way `ablate -h` renders it (experiment.ExpUsage, derived from the
// study registry): every registered study must be offered by the usage
// string, and every name the usage string offers must appear in the README,
// so a new study cannot ship undocumented.
func TestAblateFlagHelpMatchesREADME(t *testing.T) {
	usage := experiment.ExpUsage()
	for _, s := range experiment.Studies() {
		if !strings.Contains(usage, s.Name+",") {
			t.Errorf("-exp usage %q does not offer study %q", usage, s.Name)
		}
	}
	list, _, _ := strings.Cut(strings.TrimPrefix(usage, "study: "), " (")
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); !strings.Contains(string(readme), name) {
			t.Errorf("README does not mention %q offered by ablate -exp", name)
		}
	}
}

// studyTableRow renders a study as its row of the README experiment table.
func studyTableRow(s experiment.Study) string {
	var orderings []string
	for _, o := range s.Orderings {
		orderings = append(orderings, o.String())
	}
	if orderings == nil {
		orderings = []string{"—"}
	}
	return fmt.Sprintf("| `%s` | %s | %s | %s |", s.Name, s.ID, s.Desc, strings.Join(orderings, "; "))
}

// TestStudyRegistryInvariants holds the study registry against its
// consumers: names, ids and cell names are unique; every asserted ordering
// names rows its study really emits on every default cell, and holds there;
// and the README experiment table carries exactly the registry's row for
// every study. (The committed bench/ artifacts need no entry here: cmd/ablate's
// TestBenchArtifacts globs them and regenerates each from its own contents.)
func TestStudyRegistryInvariants(t *testing.T) {
	studies := experiment.Studies()
	names, ids := map[string]bool{}, map[string]bool{}
	for _, s := range studies {
		if s.Name == "" || s.Name == "all" || strings.ContainsAny(s.Name, ", ") || names[s.Name] {
			t.Errorf("study name %q is empty, reserved, unselectable or registered twice", s.Name)
		}
		if s.ID == "" || ids[s.ID] {
			t.Errorf("study %s: id %q is empty or registered twice", s.Name, s.ID)
		}
		names[s.Name], ids[s.ID] = true, true
		cells := map[string]bool{}
		for _, c := range s.Cells {
			if c.Name == "" || cells[c.Name] {
				t.Errorf("study %s: cell name %q is empty or listed twice", s.Name, c.Name)
			}
			cells[c.Name] = true
			if err := c.Config.Validate(); err != nil {
				t.Errorf("study %s cell %s: %v", s.Name, c.Name, err)
			}
		}
		if len(s.Cells) == 0 || s.Cells[0].Config != experiment.Reduced {
			t.Errorf("study %s: first cell of %+v is not the reduced default scale", s.Name, s.Cells)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range studies {
		if row := studyTableRow(s); !strings.Contains(string(readme), row+"\n") {
			t.Errorf("README experiment table misses the registry row of %s:\n%s", s.Name, row)
		}
	}

	if testing.Short() {
		t.Skip("skipping the ordered studies' cells in -short mode")
	}
	for _, s := range studies {
		if len(s.Orderings) == 0 {
			continue
		}
		for _, c := range s.Cells {
			rows, err := s.Run(c.Config)
			if err == nil {
				err = experiment.CheckOrderings(rows, s.Orderings)
			}
			if err != nil {
				t.Errorf("study %s on cell %s: %v", s.Name, c.Name, err)
			}
		}
	}
}

// mdPathRe matches a Markdown file name or repository-relative path.
var mdPathRe = regexp.MustCompile(`[\w./-]+\.md\b`)

// TestGoCommentsCiteExistingDocs resolves every Markdown path named in a Go
// comment (benchmark/ is its own module and keeps its own docs) against the
// repository root, so a comment cannot send a reader to a file that was
// never written or has been folded into another.
func TestGoCommentsCiteExistingDocs(t *testing.T) {
	cited := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				for _, md := range mdPathRe.FindAllString(c.Text, -1) {
					cited++
					if _, err := os.Stat(md); err != nil {
						t.Errorf("%s cites %s, which does not exist", fset.Position(c.Pos()), md)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Error("no Markdown citation found in any Go comment; the guard is looking in the wrong place")
	}
}

// codeCiteRe matches a backticked Go file citation, `path.go` or
// `path.go:Name`; pkgCiteRe a backticked internal package directory.
var (
	codeCiteRe = regexp.MustCompile("`([\\w./-]+\\.go)(?::([\\w./]+))?`")
	pkgCiteRe  = regexp.MustCompile("`(internal/[\\w/]+)`")
)

// TestDocsCiteExistingCode resolves every code citation in README.md and
// docs/*.md. A cited `path.go` must be the trailing path of a Go file of the
// repository (benchmark/out aside); with `path.go:Name` one such file must
// also contain Name as a word, every dotted part of it, where a
// sub-benchmark or list suffix after "/" is ignored. A cited `internal/pkg`
// must be a directory.
func TestDocsCiteExistingCode(t *testing.T) {
	var goFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == filepath.Join("benchmark", "out") || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declares := func(files []string, name string) bool {
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			found := true
			for _, part := range strings.Split(name, ".") {
				found = found && regexp.MustCompile(`\b`+regexp.QuoteMeta(part)+`\b`).Match(src)
			}
			if found {
				return true
			}
		}
		return false
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, doc := range append([]string{"README.md"}, docs...) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(raw), "\n") {
			for _, m := range codeCiteRe.FindAllStringSubmatch(line, -1) {
				cited++
				var files []string
				for _, f := range goFiles {
					if f == m[1] || strings.HasSuffix(f, "/"+m[1]) {
						files = append(files, f)
					}
				}
				name, _, _ := strings.Cut(m[2], "/")
				switch {
				case len(files) == 0:
					t.Errorf("%s:%d cites %s, which does not exist", doc, n+1, m[1])
				case name != "" && !declares(files, name):
					t.Errorf("%s:%d cites %s:%s, but no %s contains %s", doc, n+1, m[1], m[2], m[1], name)
				}
			}
			for _, m := range pkgCiteRe.FindAllStringSubmatch(line, -1) {
				cited++
				if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d cites %s, which is not a directory", doc, n+1, m[1])
				}
			}
		}
	}
	if cited == 0 {
		t.Error("no code citation found in README.md or docs/; the guard is looking in the wrong place")
	}
}

// specFlagRe matches a spec quoted after one of the flags that take one;
// specFenceRe a fenced block of spec examples, one per line.
var (
	specFlagRe  = regexp.MustCompile(`-(?:spec|topo|platform) "([^"<]+)"`)
	specFenceRe = regexp.MustCompile("(?s)```spec\n(.*?)```")
)

// TestDocumentedSpecsBuild builds every topology spec the README and the
// spec reference show: the ones quoted after -spec, -topo or -platform, and
// every line of the ```spec example blocks (the spec, then two or more
// spaces, then its description).
func TestDocumentedSpecsBuild(t *testing.T) {
	for _, path := range []string{"README.md", filepath.Join("docs", "TOPOLOGY_SPECS.md")} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var specs []string
		for _, m := range specFlagRe.FindAllStringSubmatch(string(raw), -1) {
			specs = append(specs, m[1])
		}
		for _, block := range specFenceRe.FindAllStringSubmatch(string(raw), -1) {
			for _, line := range strings.Split(strings.TrimSpace(block[1]), "\n") {
				spec, _, _ := strings.Cut(line, "  ")
				specs = append(specs, spec)
			}
		}
		if len(specs) == 0 {
			t.Errorf("%s: no specs found; the guard is looking in the wrong place", path)
		}
		for _, spec := range specs {
			if _, err := topology.FromSpec(spec); err != nil {
				t.Errorf("%s shows spec %q, which does not build: %v", path, spec, err)
			}
		}
	}
}

// panicRowRe matches a row of the panic audit in docs/ARCHITECTURE.md:
// | `pkg/file.go:Func` | count | kind | reason |.
var panicRowRe = regexp.MustCompile("^\\| `([\\w./-]+\\.go):([\\w.]+)` \\| (\\d+) \\| (unreachable invariant|build-time API misuse) \\| .+ \\|$")

// TestPanicAuditCoversEveryPanic holds the panic audit in
// docs/ARCHITECTURE.md against the code: every function of a non-test Go
// file outside benchmark/ that calls panic has one row, keyed by its path
// below internal/ and its name (Type.Method for a method), with the number
// of panic calls in its body and whether each is an unreachable invariant or
// build-time API misuse; and every row names such a function.
func TestPanicAuditCoversEveryPanic(t *testing.T) {
	found := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				name = typ.(*ast.Ident).Name + "." + name
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						found[strings.TrimPrefix(filepath.ToSlash(path), "internal/")+":"+name]++
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	audited := map[string]int{}
	for _, line := range strings.Split(string(raw), "\n") {
		if m := panicRowRe.FindStringSubmatch(line); m != nil {
			audited[m[1]+":"+m[2]], _ = strconv.Atoi(m[3])
		}
	}
	for _, site := range slices.Sorted(maps.Keys(found)) {
		if n := found[site]; audited[site] != n {
			t.Errorf("%s calls panic %d times; the audit in docs/ARCHITECTURE.md lists %d: add or fix its row", site, n, audited[site])
		}
	}
	for _, site := range slices.Sorted(maps.Keys(audited)) {
		if found[site] == 0 {
			t.Errorf("the audit in docs/ARCHITECTURE.md lists %s, which calls no panic: drop its row", site)
		}
	}
	if len(found) == 0 {
		t.Error("no panic found in the code; the guard is looking in the wrong place")
	}
}

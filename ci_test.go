// CI-style repository guards: a go vet pass over every package, a gofmt
// formatting guard, a go.mod tidiness check, a guard against fused
// multiply-add instructions, a 386-against-amd64 diff of cmd/ablate, a guard against exported names that only
// tests use, a guard against exported fields no caller sets, a ceiling
// on the non-test line count and a guard tying fuzz targets to CI steps.
package repro

import (
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestGoVet runs `go vet ./...` over the repository, the static-analysis
// step of the CI pipeline.
func TestGoVet(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go vet in -short mode")
	}
	cmd := exec.Command("go", "vet", "./...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet ./... failed:\n%s", out)
	}
}

// TestGofmt mirrors the CI gofmt step in-suite: `gofmt -l` over the
// repository must list no files, so an unformatted file fails `go test`
// locally instead of surfacing only in the workflow.
func TestGofmt(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping gofmt in -short mode")
	}
	cmd := exec.Command("gofmt", "-l", ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("gofmt -l failed: %v\n%s", err, out)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		t.Fatalf("files need gofmt:\n%s", files)
	}
}

// TestGoModTidy guards against go.mod/go.sum drift: `go mod tidy -diff`
// exits non-zero and prints the needed changes when the module files do not
// match the source's import graph.
func TestGoModTidy(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go mod tidy in -short mode")
	}
	cmd := exec.Command("go", "mod", "tidy", "-diff")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go mod tidy -diff reports drift (run `go mod tidy`):\n%s", out)
	}
}

// fusedOp matches one fused multiply-add instruction in the compiler's -S
// listing, on every GOARCH that has them (arm64, ppc64le, s390x, riscv64,
// loong64), and captures its source position.
var fusedOp = regexp.MustCompile(`\(([^()\s]+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[SD]?)\s`)

// TestNoFusedMultiplyAdd keeps "same seed, same bytes" true on every GOARCH.
// The Go spec lets the compiler fuse x*y + z into one instruction that
// rounds once; amd64 never does, the architectures above do, and a fused
// product moves simulated cycles, costs and digests by an ulp. An explicit
// float64(x*y) conversion rounds, which forbids the fusion. The test
// cross-compiles every package of the module with -S and fails on any fused
// instruction, naming its file and line. It checks arm64 unless
// REPRO_FMA_GOARCH lists other architectures, comma-separated.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the cross-compiled FMA scan in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	arches := "arm64"
	if env := os.Getenv("REPRO_FMA_GOARCH"); env != "" {
		arches = env
	}
	for _, arch := range strings.Split(arches, ",") {
		// -a: a cached package would print no listing.
		cmd := exec.Command("go", "build", "-a", "-gcflags=repro/...=-S", "./...")
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build failed: %v\n%s", arch, err, out)
		}
		for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
			pos, _ := filepath.Rel(wd, m[1])
			t.Errorf("GOARCH=%s: %s at %s: wrap the product in float64(...)", arch, m[2], pos)
		}
	}
}

// TestAblateSameBytesOn386 is the 32-bit half of "same seed, same bytes":
// it builds cmd/ablate natively and with GOARCH=386, runs every study as a
// JSON document at two seeds on both binaries, and requires identical
// stdout. It executes the 386 binary, so it runs only on linux/amd64.
func TestAblateSameBytesOn386(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the 386 ablate diff in -short mode")
	}
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("needs linux/amd64 to execute a 386 binary, have %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, arch := range []string{"amd64", "386"} {
		bins[arch] = filepath.Join(dir, "ablate-"+arch)
		cmd := exec.Command("go", "build", "-o", bins[arch], "./cmd/ablate")
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("GOARCH=%s go build ./cmd/ablate: %v\n%s", arch, err, out)
		}
	}
	for _, seed := range []string{"7", "42"} {
		var outs [2][]byte
		for i, arch := range []string{"amd64", "386"} {
			out, err := exec.Command(bins[arch], "-exp", "all", "-json", "-seed", seed).Output()
			if err != nil {
				t.Fatalf("GOARCH=%s ablate -seed %s: %v", arch, seed, err)
			}
			outs[i] = out
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Errorf("ablate -exp all -json -seed %s: the 386 build prints other bytes than the amd64 build", seed)
		}
	}
}

// TestFuzzTargetsHaveCISteps ties the fuzz targets to the fuzz-smoke job of
// .github/workflows/ci.yml: every func Fuzz* of this module (benchmark/ is
// its own module) has exactly one step that fuzzes it in its own package,
// and every step names a target that exists there.
func TestFuzzTargetsHaveCISteps(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]int{} // "./pkg Target" → steps
	stepRE := regexp.MustCompile(`go test (\S+) -run '\^\$' -fuzz '\^(Fuzz\w*)\$'`)
	for _, sm := range stepRE.FindAllStringSubmatch(string(workflow), -1) {
		steps[sm[1]+" "+sm[2]]++
	}
	if len(steps) == 0 {
		t.Fatal("no fuzz-smoke step found in the workflow")
	}
	targets := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == "benchmark" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		if pkg == "./." {
			pkg = "."
		}
		for _, fm := range funcRE.FindAllStringSubmatch(string(src), -1) {
			targets[pkg+" "+fm[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range targets {
		if steps[target] != 1 {
			t.Errorf("fuzz target %s has %d fuzz-smoke steps, want 1", target, steps[target])
		}
	}
	for step := range steps {
		if !targets[step] {
			t.Errorf("a fuzz-smoke step fuzzes %s, which does not exist", step)
		}
	}
}

// nonTestLineCeiling is the most non-test Go lines the repository may hold
// outside benchmark/. A change that grows past it re-pins it and says so.
// 12756 → 12779: the ORWL handoff's grant flag and waiting handshake, and
// the canonical handle list and CommMatrix's endpoint lists sized up front.
// 12779 → 12743: one greedy fill, the full scan and its dispatch moved to
// the test oracle, net of the ORWL runtime's volume and size checks.
// 12743 → 12818: the per-worker working set of the per-node Algorithm 1 —
// comm.Storage with SubmatrixIn, AggregateIn and PadView, the Mapper with
// its flat leaf order, and the greedy fill's reusable tables — net of the
// per-entity label formatting, the per-entity cover slices and the
// spare-core case's control-entity map it replaced.
// 12818 → 12744: one Contention snapshot per Machine in place of three
// setters, three getters and their helpers; omp's goroutine path, which only
// a test reached; and one Handle.ReleaseOrNext for three copies.
// 12744 → 12784: the scheduler loop's working set — placement.SlotMapper
// with its storages and flat distance table, and the distance matcher's
// tables and search state kept in treematch.Mapper — net of the per-call
// matcher and free-slot placement moved to the test oracles.
// 12784 → 12759: the node layout is built once, by topology.NodeCores, and
// placement, the scheduler, its capacity index and Platform stop rebuilding
// it; three object→index maps read LevelIndex instead.
// 12759 → 12808: the scheduler's levels 1 and 2 in the loop's working set —
// the portfolio's candidates as named heuristics run in a Mapper's kept
// candidate sets (one after another below concurrentMinOrder, one
// goroutine each from it on; a fresh Mapper's in the package functions),
// the crossing tables, the kept model block matchGroupsIn shares with
// level 3, the capacity's free-list view and the tier list built with the
// topology — net of the candidate closures, the score list and the
// per-call model rows moved to the test oracle, and of the PartitionAcross
// and GroupProcesses wrappers.
// 12808 → 13073: the boundary refinement's group-by-group ranking of
// symmetric matrices (per-worker term buffers, the pair sum over entries
// and mirrors, a bounded heap, the fall-back on a NaN cut) beside the
// buffered one it keeps for the rest; the scheduler's typed departure heap
// in place of container/heap; the greedy seed order's keyed sort; the
// partitioner split out of the Mapper with storages made on first use; and
// SlotMapper.AssignTasks.
// 13073 → 12901: every comm.Matrix equals its transpose (AddSym the only
// writer, Read symmetrises, Aggregate mirrors), so one cut ranker, one fill
// walk and a one-walk SymmetricAdjacency remain, without Set, Add,
// IsSymmetric, the NaN fall-backs or the negative-volume guards.
// 12901 → 12689: a study's configuration lives in the registry only, so
// cmd/ablate's ten per-study flags, their parsers, experiment.Overrides,
// SchedConfig's override fields, FaultConfig.Events and the event checks
// only those flags could reach are gone.
// 12689 → 12629: every study is an AblationX(Config), so ClusterConfig's
// exported fields, FaultConfig, SchedConfig and its Validate, the generic
// fault resolver (FaultEventSpec, BuildFaultSchedule), the registry's
// derived adapter, Hierarchical.TreeFabric and FabricGraph.NumLevels go
// (−78), net of A1–A7's registered orderings (+22) and of the node pool's
// fixed dealing (−3).
// 12629 → 12565: each experiment has one entry point, so A8's second door
// (PhaseShiftConfig, PhaseShiftResult, RunPhaseShift and its mode lookup)
// and RunAdaptive's options go, TorusResult drops its unread Mode and
// String, and the facade stops re-exporting Figure 1 and the phase shift.
// 12565 → 12485: treematch derives every matrix from its own entity lists
// through one panicking guard, so the partition candidates, the portfolio
// and Algorithm 1's level loop return no error no input can produce.
const nonTestLineCeiling = 12485

// TestNonTestLineCeiling counts the non-test Go lines outside benchmark/ the
// way ROADMAP.md does — non-blank lines that are not // comments, as
//
//	find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | grep -vE '^\s*(//|$)' | wc -l
//
// prints them — logs the count and fails above nonTestLineCeiling.
func TestNonTestLineCeiling(t *testing.T) {
	count := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == "benchmark" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(src), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "//") {
				count++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d non-test lines outside benchmark/ (ceiling %d)", count, nonTestLineCeiling)
	if count > nonTestLineCeiling {
		t.Errorf("%d non-test lines exceed the ceiling of %d: delete code, or re-pin nonTestLineCeiling and say why", count, nonTestLineCeiling)
	}
}

// testOnlyAllowed names the exported declarations under internal/ that only
// tests use on purpose, keyed "package.Name" or "package.Type.Method", each
// with the reason it stays.
var testOnlyAllowed = map[string]string{
	"comm.Matrix.Equal":                  "the comparator every differential test reads its verdict from",
	"comm.Random":                        "the seeded random matrices the partitioners and their oracles are fuzzed on",
	"experiment.Studies":                 "the study registry, held against the README and every study's orderings",
	"experiment.AblationOrderings":       "the orderings each study test asserts on its rows",
	"numasim.Machine.EdgeFaultFactor":    "reads back what ApplyFaultEvents made of an edge: degrades compound, a sever is 0",
	"numasim.Proc.Bound":                 "observes whether a Proc is pinned (MigrateTo pins, nobind leaves it roaming)",
	"numasim.Proc.Name":                  "the diagnostic name NewProc and NewUnboundProc take, checked to be kept",
	"orwl.Location.Grants":               "observes read-pair grant grouping in the stress tests",
	"orwl.Location.QueueLen":             "observes that every queue drains",
	"orwl.Runtime.MeasuredCommMatrix":    "the measured matrix, checked against the structural one and the old accounting",
	"sched.Capacity.Fingerprint":         "checks that a probe restores the capacity index exactly",
	"sched.JobSpec.Render":               "the fixed point of the job-spec grammar fuzz target",
	"topology.Topology.CheckUltrametric": "the distance-model oracle of the topology tests",
	"topology.PlatformSpec.Nodes":        "the parser's node count, checked against the built topology",
}

// TestNoTestOnlyExports type-checks every non-test file of this module and
// of the nested benchmark module, and fails on an exported func, method,
// type, const or package var under internal/ that no non-test file uses:
// such a name is a second path that only its tests keep alive. A method that
// satisfies an interface the program names counts as used; testOnlyAllowed
// lists the oracles and observers tests read on purpose.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the export census in -short mode")
	}
	imp := loadRepo(t)
	info := imp.info

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var noteIfaces func(types.Type)
	noteIfaces = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.Underlying().(type) {
		case *types.Interface:
			if u.NumMethods() > 0 {
				ifaces = append(ifaces, u)
			}
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					noteIfaces(tuple.At(i).Type())
				}
			}
		}
	}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
		noteIfaces(obj.Type())
	}
	for _, tv := range info.Types {
		noteIfaces(tv.Type)
	}
	fmtPkg, err := imp.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	noteIfaces(fmtPkg.Scope().Lookup("Stringer").Type())
	noteIfaces(types.Universe.Lookup("error").Type())
	satisfies := func(recv types.Type, method string) bool {
		for _, iface := range ifaces {
			for i := 0; i < iface.NumMethods(); i++ {
				if iface.Method(i).Name() == method &&
					(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
					return true
				}
			}
		}
		return false
	}

	var unused []string
	allowed := map[string]bool{}
	report := func(key string, obj types.Object) {
		if _, ok := testOnlyAllowed[key]; ok {
			allowed[key] = true
			return
		}
		unused = append(unused, imp.fset.Position(obj.Pos()).String()+": "+key)
	}
	for path, pkg := range imp.pkgs {
		if !strings.Contains(path, "/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := pkg.Name() + "." + name
			if obj.Exported() && !used[obj] {
				report(key, obj)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] && !satisfies(named, m.Name()) {
					report(key+"."+m.Name(), m)
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no use outside tests: delete it, or allowlist it in testOnlyAllowed with the reason", u)
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("testOnlyAllowed lists %s, which is gone or has a non-test use: drop the entry", key)
		}
	}
}

// unsetAllowed names the exported struct fields under internal/ that no
// non-test file writes on purpose, keyed "package.Type.Field", each with the
// reason it stays.
var unsetAllowed = map[string]string{}

// TestNoUnsetFields fails on an exported field of an exported struct under
// internal/ that no non-test file of this module or of benchmark/ writes:
// such a field is a setting every caller leaves at its default, so it is a
// constant. A write is a keyed composite-literal element, an unkeyed
// literal of the struct, or an assignment or ++/-- to the field; a write
// inside an if whose condition compares that same field with a constant is
// its own default and does not count.
func TestNoUnsetFields(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the field census in -short mode")
	}
	imp := loadRepo(t)
	info := imp.info
	written := map[*types.Var]bool{}
	fieldOf := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var)
		}
		return nil
	}
	isConst := func(e ast.Expr) bool {
		tv := info.Types[e]
		return tv.Value != nil || tv.IsNil()
	}
	// guards holds, for each enclosing if, the fields its condition
	// compares with a constant.
	var guards []map[*types.Var]bool
	write := func(v *types.Var) {
		if v == nil {
			return
		}
		for _, g := range guards {
			if g[v] {
				return
			}
		}
		written[v] = true
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				ast.Inspect(n.Init, walk)
			}
			tested := map[*types.Var]bool{}
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if b, ok := c.(*ast.BinaryExpr); ok {
					for _, pair := range [][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
						if v := fieldOf(pair[0]); v != nil && isConst(pair[1]) {
							tested[v] = true
						}
					}
				}
				return true
			})
			ast.Inspect(n.Cond, walk)
			guards = append(guards, tested)
			ast.Inspect(n.Body, walk)
			guards = guards[:len(guards)-1]
			if n.Else != nil {
				ast.Inspect(n.Else, walk)
			}
			return false
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						write(v)
					}
				} else {
					write(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(fieldOf(lhs))
			}
		case *ast.IncDecStmt:
			write(fieldOf(n.X))
		}
		return true
	}
	for _, files := range imp.files {
		for _, f := range files {
			ast.Inspect(f, walk)
		}
	}

	var unset []string
	allowed := map[string]bool{}
	for path, pkg := range imp.pkgs {
		if !strings.Contains(path, "/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !obj.Exported() {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || written[f] {
					continue
				}
				key := pkg.Name() + "." + name + "." + f.Name()
				if _, ok := unsetAllowed[key]; ok {
					allowed[key] = true
					continue
				}
				unset = append(unset, imp.fset.Position(f.Pos()).String()+": "+key)
			}
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is never written outside tests: make it a constant, or allowlist it in unsetAllowed with the reason", u)
	}
	for key := range unsetAllowed {
		if !allowed[key] {
			t.Errorf("unsetAllowed lists %s, which is gone or now written: drop the entry", key)
		}
	}
}

// loadRepo type-checks every non-test file of this module and of the
// nested benchmark module, recording uses and field selections in one
// shared Info.
func loadRepo(t *testing.T) *repoImporter {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := files["repro/benchmark"]; !ok {
		t.Fatal("benchmark module not found; the census would miss its uses")
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{}}
	imp := &repoImporter{fset: fset, files: files, info: info,
		pkgs: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil)}
	for path := range files {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return imp
}

// repoImporter type-checks the repository's packages from their non-test
// files on first import, recording every use in one shared Info, and leaves
// the standard library to std.
type repoImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	pkgs  map[string]*types.Package
	std   types.Importer
}

func (r *repoImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := r.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := r.files[path]
	if !ok {
		return r.std.Import(path)
	}
	pkg, err := (&types.Config{Importer: r}).Check(path, r.fset, files, r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[path] = pkg
	return pkg, nil
}

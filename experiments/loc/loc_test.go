package loc

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountSourceBasics(t *testing.T) {
	src := `package x

// a comment
func F() int {
	return 1 // trailing comments count the line as code
}
`
	c := CountSource(src)
	if c.Code != 4 {
		t.Fatalf("code = %d, want 4", c.Code)
	}
	if c.Comments != 1 {
		t.Fatalf("comments = %d, want 1", c.Comments)
	}
	if c.Blanks != 1 {
		t.Fatalf("blanks = %d, want 1", c.Blanks)
	}
	if c.Total() != 6 {
		t.Fatalf("total = %d, want 6", c.Total())
	}
}

func TestCountSourceBlockComments(t *testing.T) {
	src := `package x
/* one
two
three */
var A = 1
/* inline */ var B = 2
`
	c := CountSource(src)
	if c.Comments != 4 {
		t.Fatalf("comments = %d, want 4 (3 block + 1 inline-open)", c.Comments)
	}
	if c.Code != 2 {
		t.Fatalf("code = %d, want 2", c.Code)
	}
}

func TestCountSourceCodeAfterBlockClose(t *testing.T) {
	src := "package x\n/* c\nc */ var A = 1\n"
	c := CountSource(src)
	if c.Code != 2 {
		t.Fatalf("code = %d, want 2 (package + closing line with code)", c.Code)
	}
	if c.Comments != 1 {
		t.Fatalf("comments = %d, want 1", c.Comments)
	}
}

func TestCountDirAndFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", "package a\nvar X = 1\n")
	write("a_test.go", "package a\nfunc TestX() {}\n")
	write("notgo.txt", "hello\n")

	noTests, err := CountDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if noTests.Files != 1 || noTests.Code != 2 {
		t.Fatalf("without tests: %+v", noTests)
	}
	withTests, err := CountDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if withTests.Files != 2 || withTests.Code != 4 {
		t.Fatalf("with tests: %+v", withTests)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/loc -> repo root
}

func TestTable2OverThisRepo(t *testing.T) {
	root := repoRoot(t)
	rows, err := Table2(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tcbRows) {
		t.Fatalf("table has %d rows, want %d", len(rows), len(tcbRows))
	}
	byName := make(map[string]TableRow)
	for _, r := range rows {
		byName[r.Name] = r
	}
	// 1. Shared is the closure rule: every module package the row's entry
	//    package links, directly or not, except the packages with rows of
	//    their own; Logic is the entry package alone. Both count every
	//    non-test file of their packages.
	hasRow := make(map[string]bool)
	for _, r := range tcbRows {
		hasRow[r.pkg] = true
	}
	for _, r := range rows {
		closure := closureOf(t, root, r.Package)
		var want []string
		for _, p := range closure {
			if !hasRow[p] {
				want = append(want, p)
			}
		}
		if !slices.Equal(r.Shared, want) {
			t.Errorf("%s shares %v, want its closure less the rows: %v", r.Name, r.Shared, want)
		}
		shared := 0
		for _, p := range r.Shared {
			shared += dirCode(t, root, p)
		}
		if r.SharedLOC != shared || r.LogicLOC != dirCode(t, root, r.Package) || r.TotalLOC != r.SharedLOC+r.LogicLOC {
			t.Errorf("%s counts shared %d, logic %d, total %d; its files hold %d and %d",
				r.Name, r.SharedLOC, r.LogicLOC, r.TotalLOC, shared, dirCode(t, root, r.Package))
		}
	}
	// 2. Every enclave links the shared compartment code and the message
	//    definitions, the runtime and the counter are rows of their own, and
	//    only Execution links the applications it hosts.
	prep, conf, exec := byName["Preparation Enc."], byName["Confirmation Enc."], byName["Execution Enc."]
	for _, r := range []TableRow{prep, conf, exec} {
		for _, p := range []string{"internal/compartment", "internal/messages", "internal/crypto"} {
			if !slices.Contains(r.Shared, p) {
				t.Errorf("%s does not share %s", r.Name, p)
			}
		}
		if slices.Contains(r.Shared, "internal/tee") || slices.Contains(r.Shared, "internal/counter") {
			t.Errorf("%s counts a row of its own in its shared column: %v", r.Name, r.Shared)
		}
	}
	if !slices.Contains(exec.Shared, "internal/app") || slices.Contains(prep.Shared, "internal/app") || slices.Contains(conf.Shared, "internal/app") {
		t.Error("the applications belong to Execution's column alone")
	}
	// 3. The execution enclave is the largest (it links the apps).
	if exec.TotalLOC <= prep.TotalLOC || exec.TotalLOC <= conf.TotalLOC {
		t.Fatalf("execution enclave should be largest: prep=%d conf=%d exec=%d",
			prep.TotalLOC, conf.TotalLOC, exec.TotalLOC)
	}
	// 4. The trusted counter is far smaller than any enclave.
	tc := byName["Trusted Counter"]
	if tc.TotalLOC == 0 || tc.TotalLOC*3 > prep.TotalLOC {
		t.Fatalf("trusted counter should be much smaller than an enclave: %d vs %d",
			tc.TotalLOC, prep.TotalLOC)
	}
	// 5. Individual enclaves are significantly smaller than the whole
	//    codebase (the attack-surface argument of §5).
	whole, err := CountDir(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if exec.TotalLOC*2 > whole.Code {
		t.Fatalf("an enclave (%d LOC) should be well under half the codebase (%d LOC)",
			exec.TotalLOC, whole.Code)
	}
	text := FormatTable2(rows)
	if !strings.Contains(text, "Preparation Enc.") || !strings.Contains(text, "Trusted Counter") {
		t.Fatalf("formatted table incomplete:\n%s", text)
	}
}

// closureOf is pkg's module closure, itself excluded, sorted.
func closureOf(t *testing.T, root, pkg string) []string {
	t.Helper()
	pkgs, err := listPackages(root, pkg)
	if err != nil {
		t.Fatal(err)
	}
	deps := slices.Clone(pkgs[pkg].Deps)
	slices.Sort(deps)
	return deps
}

// dirCode counts the code lines of a package directory's non-test files.
func dirCode(t *testing.T, root, pkg string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, pkg, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		c, err := CountFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n += c.Code
	}
	return n
}

// TestEnclaveClosures guards what each enclave links, so the compiler, not a
// list, keeps a compartment apart from the environment and from the other
// compartments: no enclave links the untrusted environment's packages —
// observability, transport, storage, the broker's ring, the client library,
// the replica wiring, the PBFT baseline — or another compartment; only
// Execution links the applications; and the environment links no client
// code.
func TestEnclaveClosures(t *testing.T) {
	root := repoRoot(t)
	compartments := []string{
		"internal/compartment/preparation",
		"internal/compartment/confirmation",
		"internal/compartment/execution",
	}
	untrusted := []string{
		"internal/obs", "internal/transport", "internal/store", "internal/ring",
		"internal/client", "internal/core", "internal/pbft",
	}
	for _, c := range compartments {
		closure := closureOf(t, root, c)
		for _, p := range append(slices.Clone(untrusted), compartments...) {
			if p != c && slices.Contains(closure, p) {
				t.Errorf("%s links %s", c, p)
			}
		}
		if linksApp := slices.Contains(closure, "internal/app"); linksApp != strings.HasSuffix(c, "/execution") {
			t.Errorf("%s links internal/app: %v", c, linksApp)
		}
	}
	if slices.Contains(closureOf(t, root, "internal/core"), "internal/client") {
		t.Error("internal/core links the client library")
	}
}

// TestREADMETable2 keeps the Table 2 committed in README.md the one this
// package computes.
func TestREADMETable2(t *testing.T) {
	root := repoRoot(t)
	rows, err := Table2(root)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if want := FormatTable2(rows); !strings.Contains(string(readme), want) {
		t.Fatalf("README.md does not hold the current Table 2; regenerate it with go run ./cmd/tcbcount:\n%s", want)
	}
}

// TestTCBBudget pins each trusted row's total lines and each compartment's
// own logic lines (Table 2's Total and Logic columns) so an enclave cannot
// quietly grow, the way TestVerifyBudget pins signature verifications.
// Shrinking a row is always fine; lower its budget with it. Growing one is a
// decision to argue in review, not a drift.
func TestTCBBudget(t *testing.T) {
	type budget struct{ total, logic int }
	budgets := map[string]budget{
		"Preparation Enc.":  {3345, 473},
		"Confirmation Enc.": {3310, 438},
		"Execution Enc.":    {4175, 942},
		"Enclave Runtime":   {3071, 0},
		"Trusted Counter":   {600, 0},
	}
	rows, err := Table2(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		b, ok := budgets[r.Name]
		if !ok {
			continue
		}
		if r.TotalLOC > b.total {
			t.Errorf("%s has %d lines in total, budget %d", r.Name, r.TotalLOC, b.total)
		}
		if b.logic > 0 && r.LogicLOC > b.logic {
			t.Errorf("%s has %d logic lines, budget %d", r.Name, r.LogicLOC, b.logic)
		}
		delete(budgets, r.Name)
	}
	for name := range budgets {
		t.Errorf("Table 2 has no %q row to hold to its budget", name)
	}
}

func TestPackageBreakdown(t *testing.T) {
	bd, err := PackageBreakdown(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pkg := range SortedPackages(bd) {
		if strings.Contains(pkg, "internal/core") {
			found = true
			if bd[pkg].Code == 0 {
				t.Fatal("core package counted zero code lines")
			}
		}
	}
	if !found {
		t.Fatal("breakdown missing internal/core")
	}
}

func TestQuickCountSourceTotalsConsistent(t *testing.T) {
	f := func(lines []string) bool {
		src := strings.Join(lines, "\n")
		c := CountSource(src)
		// Total classified lines must equal the number of lines in the
		// input (modulo the trailing-newline adjustment).
		want := strings.Count(src, "\n") + 1
		if strings.HasSuffix(src, "\n") {
			want--
		}
		return c.Total() == want || c.Total() == want+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

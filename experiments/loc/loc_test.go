package loc

import (
	"os"
	"path/filepath"
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
	rows, err := Table2(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("table has %d rows, want 5", len(rows))
	}
	byName := make(map[string]TableRow)
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Structural properties the paper's Table 2 exhibits:
	// 1. Enclaves share a common types base, so SharedLOC is equal across
	//    the three enclaves and nonzero.
	prep, conf, exec := byName["Preparation Enc."], byName["Confirmation Enc."], byName["Execution Enc."]
	if prep.SharedLOC == 0 || prep.SharedLOC != conf.SharedLOC || conf.SharedLOC != exec.SharedLOC {
		t.Fatalf("shared LOC should match across enclaves: %d %d %d",
			prep.SharedLOC, conf.SharedLOC, exec.SharedLOC)
	}
	// 2. The execution enclave is the largest (it contains the apps).
	if exec.TotalLOC <= prep.TotalLOC || exec.TotalLOC <= conf.TotalLOC {
		t.Fatalf("execution enclave should be largest: prep=%d conf=%d exec=%d",
			prep.TotalLOC, conf.TotalLOC, exec.TotalLOC)
	}
	// 3. The trusted counter is far smaller than any enclave.
	tc := byName["Trusted Counter"]
	if tc.TotalLOC == 0 || tc.TotalLOC*3 > prep.TotalLOC {
		t.Fatalf("trusted counter should be much smaller than an enclave: %d vs %d",
			tc.TotalLOC, prep.TotalLOC)
	}
	// 4. Individual enclaves are significantly smaller than the whole
	//    codebase (the attack-surface argument of §5).
	whole, err := CountDir(repoRoot(t), false)
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
	// 5. Every non-test file of internal/core is counted exactly once:
	//    either in the shared types or in one row's own logic.
	shared, err := sharedFiles(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	placed := make(map[string]int)
	for _, f := range shared {
		placed[f]++
	}
	for _, comp := range TCBComponents() {
		for _, f := range comp.Files {
			placed[f]++
		}
	}
	core, err := filepath.Glob(filepath.Join(repoRoot(t), "internal", "core", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range core {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		if f := "internal/core/" + filepath.Base(path); placed[f] != 1 {
			t.Errorf("%s falls in %d Table 2 places, want exactly 1", f, placed[f])
		}
	}
}

// TestTCBBudget pins each compartment's own logic lines (Table 2's Logic
// column) so an enclave cannot quietly grow, the way TestVerifyBudget pins
// signature verifications. Shrinking a row is always fine; lower its budget
// with it. Growing one is a decision to argue in review, not a drift.
func TestTCBBudget(t *testing.T) {
	budget := map[string]int{
		"Preparation Enc.":  415,
		"Confirmation Enc.": 354,
		"Execution Enc.":    1201,
	}
	rows, err := Table2(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if max, ok := budget[r.Name]; ok && r.LogicLOC > max {
			t.Errorf("%s has %d logic lines, budget %d", r.Name, r.LogicLOC, max)
		}
		delete(budget, r.Name)
	}
	for name := range budget {
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

// Package loc is a small tokei-style line counter for Go sources, used to
// regenerate Table 2 of the paper (TCB sizes per compartment): it splits
// files into code, comment and blank lines, and computes each TCB row from
// the import closure of the package the row is built from, as the go command
// reports it.
package loc

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Counts is a code/comment/blank line tally.
type Counts struct {
	Files    int
	Code     int
	Comments int
	Blanks   int
}

// Total returns all lines.
func (c Counts) Total() int { return c.Code + c.Comments + c.Blanks }

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Files += other.Files
	c.Code += other.Code
	c.Comments += other.Comments
	c.Blanks += other.Blanks
}

// CountSource tallies one Go source text. It understands line comments,
// block comments (including multi-line), and leaves string-literal edge
// cases approximate — the same fidelity class as tokei's fast path.
func CountSource(src string) Counts {
	c := Counts{Files: 1}
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case inBlock:
			c.Comments++
			if idx := strings.Index(trimmed, "*/"); idx >= 0 {
				inBlock = false
				rest := strings.TrimSpace(trimmed[idx+2:])
				if rest != "" {
					// Code after the closing delimiter: count as code
					// instead (the line did real work).
					c.Comments--
					c.Code++
				}
			}
		case trimmed == "":
			c.Blanks++
		case strings.HasPrefix(trimmed, "//"):
			c.Comments++
		case strings.HasPrefix(trimmed, "/*"):
			c.Comments++
			if !strings.Contains(trimmed[2:], "*/") {
				inBlock = true
			}
		default:
			c.Code++
		}
	}
	// Split produces one extra element for the trailing newline; don't
	// count a final empty line as blank.
	if strings.HasSuffix(src, "\n") && c.Blanks > 0 {
		c.Blanks--
	}
	return c
}

// CountFile tallies one file on disk.
func CountFile(path string) (Counts, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Counts{}, fmt.Errorf("loc: %w", err)
	}
	return CountSource(string(data)), nil
}

// CountDir tallies all non-test Go files under root, recursively.
// includeTests controls whether _test.go files are counted.
func CountDir(root string, includeTests bool) (Counts, error) {
	var total Counts
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		if !includeTests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		c, err := CountFile(path)
		if err != nil {
			return err
		}
		total.Add(c)
		return nil
	})
	return total, err
}

// tcbRows maps this repository onto the paper's Table 2: each row is a TCB
// component named by the one package it is built from. The three enclaves
// each link exactly their package's import closure; the enclave runtime and
// the trusted counter get rows of their own, and the untrusted environment is
// the replica wiring around the enclaves.
var tcbRows = []struct{ name, pkg string }{
	{"Preparation Enc.", "internal/compartment/preparation"},
	{"Confirmation Enc.", "internal/compartment/confirmation"},
	{"Execution Enc.", "internal/compartment/execution"},
	{"Enclave Runtime", "internal/tee"},
	{"Trusted Counter", "internal/counter"},
	{"Untrusted Env.", "internal/core"},
}

// goPackage is one package of the repository's module as go list reports it:
// its non-test source files and the module packages it links, directly or
// not, as paths relative to the module root.
type goPackage struct {
	Files []string
	Deps  []string
}

// listPackages asks the go command for pkgs (paths relative to root) and
// every module package they link, keyed by relative path.
func listPackages(root string, pkgs ...string) (map[string]goPackage, error) {
	args := []string{"list", "-deps", "-f",
		`{{if .Module}}{{.Module.Path}}/|{{.ImportPath}}|{{.Dir}}|{{join .GoFiles ","}}|{{join .Deps ","}}{{end}}`}
	for _, p := range pkgs {
		args = append(args, "./"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loc: go list: %w: %s", err, stderr.String())
	}
	byPath := make(map[string]goPackage)
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Split(line, "|") // module/, import path, dir, files, deps
		if len(f) != 5 {
			continue // a standard-library package prints an empty line
		}
		var pkg goPackage
		for _, name := range strings.Split(f[3], ",") {
			if name != "" {
				pkg.Files = append(pkg.Files, filepath.Join(f[2], name))
			}
		}
		for _, dep := range strings.Split(f[4], ",") {
			if rel, ok := strings.CutPrefix(dep, f[0]); ok {
				pkg.Deps = append(pkg.Deps, rel)
			}
		}
		byPath[strings.TrimPrefix(f[1], f[0])] = pkg
	}
	return byPath, nil
}

// TableRow is one line of the regenerated Table 2. Logic is the row's own
// package; Shared is every other module package its closure links, minus
// the packages that have rows of their own.
type TableRow struct {
	Name      string
	Package   string
	Shared    []string // relative paths, sorted
	SharedLOC int
	LogicLOC  int
	TotalLOC  int
}

// codeLines sums the code lines of files.
func codeLines(files []string) (int, error) {
	n := 0
	for _, f := range files {
		c, err := CountFile(f)
		if err != nil {
			return 0, err
		}
		n += c.Code
	}
	return n, nil
}

// Table2 computes the TCB analysis over the repository rooted at root.
func Table2(root string) ([]TableRow, error) {
	entries := make([]string, len(tcbRows))
	hasRow := make(map[string]bool, len(tcbRows))
	for i, r := range tcbRows {
		entries[i] = r.pkg
		hasRow[r.pkg] = true
	}
	pkgs, err := listPackages(root, entries...)
	if err != nil {
		return nil, err
	}
	rows := make([]TableRow, 0, len(tcbRows))
	for _, r := range tcbRows {
		own, ok := pkgs[r.pkg]
		if !ok {
			return nil, fmt.Errorf("loc: row %s: no package %s", r.name, r.pkg)
		}
		row := TableRow{Name: r.name, Package: r.pkg}
		if row.LogicLOC, err = codeLines(own.Files); err != nil {
			return nil, fmt.Errorf("row %s: %w", r.name, err)
		}
		for _, dep := range own.Deps {
			if hasRow[dep] {
				continue
			}
			row.Shared = append(row.Shared, dep)
			n, err := codeLines(pkgs[dep].Files)
			if err != nil {
				return nil, fmt.Errorf("row %s: %w", r.name, err)
			}
			row.SharedLOC += n
		}
		sort.Strings(row.Shared)
		row.TotalLOC = row.SharedLOC + row.LogicLOC
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders the analysis in the paper's Table 2 layout.
func FormatTable2(rows []TableRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %12s %8s %10s\n", "Component", "Shared types", "Logic", "Total LOC")
	sb.WriteString(strings.Repeat("-", 54) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-20s %12d %8d %10d\n", r.Name, r.SharedLOC, r.LogicLOC, r.TotalLOC)
	}
	return sb.String()
}

// PackageBreakdown counts every package under root, for the repository
// inventory in the README.
func PackageBreakdown(root string) (map[string]Counts, error) {
	out := make(map[string]Counts)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := filepath.Dir(rel)
		c, err := CountFile(path)
		if err != nil {
			return err
		}
		cur := out[pkg]
		cur.Add(c)
		out[pkg] = cur
		return nil
	})
	return out, err
}

// SortedPackages returns breakdown keys in deterministic order.
func SortedPackages(breakdown map[string]Counts) []string {
	keys := make([]string, 0, len(breakdown))
	for k := range breakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Package loc is a small tokei-style line counter for Go sources, used to
// regenerate Table 2 of the paper (TCB sizes per compartment): it splits
// files into code, comment and blank lines and groups this repository's
// packages into the paper's TCB categories (shared types, per-compartment
// logic, untrusted environment, trusted counter).
package loc

import (
	"fmt"
	"io/fs"
	"os"
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

// Component is one row of the Table 2 analysis: a named TCB component and
// the files of its own logic. Enclave rows also link the shared types.
type Component struct {
	Name    string
	Enclave bool     // links the shared types (sharedFiles)
	Files   []string // the row's own logic, paths relative to the repo root
}

// sharedPackages are linked into every enclave whole — message definitions,
// codec and verifier, crypto — so every non-test file in them counts in the
// shared-types column, and a file added there is counted without editing a
// list.
var sharedPackages = []string{"internal/messages", "internal/crypto"}

// sharedCore are the internal/core files every compartment links: the
// common compartment state, the configuration, the sealed export/import
// code and the skewable clock.
var sharedCore = []string{
	"internal/core/comstate.go",
	"internal/core/config.go",
	"internal/core/persist.go",
	"internal/core/clock.go",
}

// TCBComponents maps this repository onto the paper's Table 2 rows: the
// per-enclave logic is each compartment's source file (Execution adds the
// applications it hosts); the untrusted environment is the broker, replica
// wiring, key derivation, observability and transport; the trusted counter
// is the hybrid-BFT counter enclave.
func TCBComponents() []Component {
	return []Component{
		{Name: "Preparation Enc.", Enclave: true, Files: []string{"internal/core/preparation.go"}},
		{Name: "Confirmation Enc.", Enclave: true, Files: []string{"internal/core/confirmation.go"}},
		{Name: "Execution Enc.", Enclave: true, Files: []string{
			"internal/core/execution.go",
			"internal/app/app.go",
			"internal/app/kvs.go",
			"internal/app/blockchain.go",
		}},
		{Name: "Untrusted Env.", Files: []string{
			"internal/core/broker.go",
			"internal/core/replica.go",
			"internal/core/keys.go",
			"internal/core/observe.go",
			"internal/transport/transport.go",
			"internal/transport/simnet.go",
			"internal/transport/tcp.go",
		}},
		{Name: "Trusted Counter", Files: []string{"internal/tee/counter.go"}},
	}
}

// sharedFiles returns the shared-types column under root: every non-test Go
// file of the shared packages, then the shared core files.
func sharedFiles(root string) ([]string, error) {
	var files []string
	for _, pkg := range sharedPackages {
		matches, err := filepath.Glob(filepath.Join(root, pkg, "*.go"))
		if err != nil {
			return nil, fmt.Errorf("loc: %w", err)
		}
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				files = append(files, pkg+"/"+filepath.Base(m))
			}
		}
	}
	return append(files, sharedCore...), nil
}

// TableRow is one line of the regenerated Table 2.
type TableRow struct {
	Name      string
	SharedLOC int
	LogicLOC  int
	TotalLOC  int
}

// codeLines sums the code lines of files under root.
func codeLines(root string, files []string) (int, error) {
	n := 0
	for _, f := range files {
		c, err := CountFile(filepath.Join(root, f))
		if err != nil {
			return 0, err
		}
		n += c.Code
	}
	return n, nil
}

// Table2 computes the TCB analysis over the repository rooted at root.
func Table2(root string) ([]TableRow, error) {
	shared, err := sharedFiles(root)
	if err != nil {
		return nil, err
	}
	sharedLOC, err := codeLines(root, shared)
	if err != nil {
		return nil, fmt.Errorf("shared types: %w", err)
	}
	components := TCBComponents()
	rows := make([]TableRow, 0, len(components))
	for _, comp := range components {
		row := TableRow{Name: comp.Name}
		if comp.Enclave {
			row.SharedLOC = sharedLOC
		}
		if row.LogicLOC, err = codeLines(root, comp.Files); err != nil {
			return nil, fmt.Errorf("component %s: %w", comp.Name, err)
		}
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

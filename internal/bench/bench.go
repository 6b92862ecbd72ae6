// Package bench is the experiment harness: one runner per query table and
// figure of the paper's evaluation (Section 11 and Section 12.4.1). Each
// runner builds its workload, drives the real two-party protocols, and
// prints the same series/rows the paper reports. Figures 7 and 8, which
// set the classic EHL against EHL+, have no runner: only EHL+ is built.
//
// Absolute numbers differ from the paper's C++/24-core testbed; the
// harness is about reproducing the *shapes* (who wins, scaling in k, m,
// p, n). EXPERIMENTS.md records paper-vs-measured for every run.
//
// Two more experiments live here because nothing else can run them: the
// multi-tenant soak (soak.go) and the throughput row against a running
// multi-process fleet (cluster.go). How fast the system itself is, end
// to end and per layer, is benchmark/'s question, not this package's.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"time"
)

// Config scopes an experiment run.
type Config struct {
	// KeyBits is the Paillier modulus size (256 keeps runs fast; the
	// paper's own modulus is comparably small, Section 11.2.5).
	KeyBits int
	// MaxScoreBits bounds attribute values.
	MaxScoreBits int
	// Rows scales every dataset to this many rows (0 = per-experiment
	// default). Full-paper row counts are impractical for the pure-Go
	// in-process harness; see EXPERIMENTS.md.
	Rows int
	// MaxDepth caps query scans for time-per-depth measurements.
	MaxDepth int
	// Seed feeds the dataset generators.
	Seed int64
	// Out receives the rendered tables; nil discards.
	Out io.Writer
}

// DefaultConfig returns the scaled-down defaults used by `go test -bench`
// and the CLI without -full.
func DefaultConfig() Config {
	return Config{
		KeyBits:      256,
		MaxScoreBits: 20,
		Rows:         120,
		MaxDepth:     6,
		Seed:         1,
	}
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// Report is one experiment's result table, consumable both for printing
// and for EXPERIMENTS.md generation.
type Report struct {
	ID     string // experiment id from DESIGN.md's index (e.g. "fig9a")
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) error {
	if w == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# %s — %s\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Markdown renders the report as a GitHub-flavored markdown table.
func (r *Report) Markdown(w io.Writer) error {
	if w == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(r.Header, " | "))
	seps := make([]string, len(r.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// readRecord parses the JSON record at path into its top-level keys; a
// missing file is an empty record, an unparsable one an error.
func readRecord(path string) (map[string]json.RawMessage, error) {
	doc := map[string]json.RawMessage{}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return doc, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("bench: %s is not a JSON record: %w", path, err)
	}
	return doc, nil
}

// saveUnder installs v under key in the JSON record at path, keeping
// the record's other keys. It is the package's only record writer, and
// it refuses to overwrite a file it cannot parse.
func saveUnder(path, key string, v any) error {
	doc, err := readRecord(path)
	if err != nil {
		return err
	}
	if doc[key], err = json.Marshal(v); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fmtDur renders a duration with 3 significant figures.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtBytes renders a byte count.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

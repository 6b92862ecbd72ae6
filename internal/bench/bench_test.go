package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/sectopk"
)

var (
	rigOnce sync.Once
	shared  *Rig
)

// tinyConfig keeps the smoke tests fast: minimal rows and depth caps.
func tinyConfig() Config {
	return Config{
		KeyBits:      256,
		EHLS:         2,
		MaxScoreBits: 20,
		Rows:         16,
		MaxDepth:     2,
		Seed:         1,
	}
}

func getRig(t testing.TB) *Rig {
	t.Helper()
	rigOnce.Do(func() {
		r, err := NewRig(tinyConfig())
		if err != nil {
			t.Fatalf("NewRig: %v", err)
		}
		shared = r
	})
	return shared
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		ID:     "figX",
		Title:  "test table",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "test table", "333", "a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
	var md bytes.Buffer
	if err := rep.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| a | bb |") {
		t.Fatalf("markdown output malformed:\n%s", md.String())
	}
	if err := rep.Render(nil); err != nil {
		t.Fatal("nil writer should be a no-op")
	}
	if err := rep.Markdown(nil); err != nil {
		t.Fatal("nil writer should be a no-op")
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtDur(1500*time.Millisecond) != "1.50s" {
		t.Fatalf("fmtDur seconds: %s", fmtDur(1500*time.Millisecond))
	}
	if !strings.HasSuffix(fmtDur(2500*time.Microsecond), "ms") {
		t.Fatalf("fmtDur ms: %s", fmtDur(2500*time.Microsecond))
	}
	if !strings.HasSuffix(fmtDur(900*time.Nanosecond), "µs") {
		t.Fatalf("fmtDur µs: %s", fmtDur(900*time.Nanosecond))
	}
	if fmtBytes(5) != "5B" || !strings.HasSuffix(fmtBytes(2048), "KB") || !strings.HasSuffix(fmtBytes(3<<20), "MB") {
		t.Fatal("fmtBytes wrong")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r := getRig(t)
	if _, err := Run(r, "nope"); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestExperimentIDsCoverRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != len(Registry) {
		t.Fatalf("ExperimentIDs has %d entries, registry has %d", len(ids), len(Registry))
	}
	for _, id := range ids {
		if Registry[id] == nil {
			t.Fatalf("id %q not in registry", id)
		}
	}
}

// TestSmokeFastExperiments runs the cheaper experiments end to end over
// the shared tiny rig; the heavyweight query sweeps are exercised by the
// root-level benchmarks instead.
func TestSmokeFastExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke tests are not short")
	}
	r := getRig(t)
	for _, id := range []string{"fig7", "fig13", "tab3", "knn"} {
		t.Run(id, func(t *testing.T) {
			reports, err := Run(r, id)
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) == 0 {
				t.Fatal("no reports")
			}
			for _, rep := range reports {
				if len(rep.Rows) == 0 {
					t.Fatalf("report %s has no rows", rep.ID)
				}
			}
		})
	}
}

// TestCheckTopK pins what the cluster driver accepts as an answer: only
// a top-k result of exactly k items.
func TestCheckTopK(t *testing.T) {
	opts := []sectopk.Option{sectopk.WithKeyBits(256), sectopk.WithEHLDigests(2), sectopk.WithMaxScoreBits(20)}
	owner, err := sectopk.NewOwner(opts...)
	if err != nil {
		t.Fatal(err)
	}
	er, err := owner.Encrypt(soakRelation(6))
	if err != nil {
		t.Fatal(err)
	}
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cc := sectopk.NewCryptoCloud(opts...)
	defer cc.Close()
	if err := cc.Register("r", owner.Keys()); err != nil {
		t.Fatal(err)
	}
	dc := sectopk.NewDataCloud(opts...)
	defer dc.Close()
	ctx := context.Background()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if err := dc.Host(ctx, "r", er); err != nil {
		t.Fatal(err)
	}
	real, err := dc.Execute(ctx, sectopk.TopKRequest("r", tk))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTopK(real, tk.K()); err != nil {
		t.Fatalf("real %d-item answer refused: %v", tk.K(), err)
	}
	for name, tc := range map[string]struct {
		ans *sectopk.Answer
		k   int
	}{
		"nil":   {nil, 2},
		"empty": {&sectopk.Answer{}, 2},
		"join":  {&sectopk.Answer{Join: &sectopk.EncryptedJoinResult{}}, 2},
		"short": {real, tk.K() + 1},
	} {
		if checkTopK(tc.ans, tc.k) == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
}

// TestSaveUnder pins the one record writer: keys coexist, cluster rows
// accumulate across runs, and a record that does not parse is reported
// and left as it was instead of being overwritten.
func TestSaveUnder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	if err := (&SoakReport{OK: 7}).SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	for nodes := 1; nodes <= 2; nodes++ {
		rep := &QPSReport{Results: []QPSResult{{Nodes: nodes, Clients: 8, QPS: float64(10 * nodes)}}}
		if err := rep.AppendJSON(path); err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != nodes {
			t.Fatalf("after run %d the report holds %d rows", nodes, len(rep.Results))
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Soak    SoakReport
		Cluster QPSReport
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Soak.OK != 7 || len(doc.Cluster.Results) != 2 || doc.Cluster.Results[1].Nodes != 2 {
		t.Fatalf("record lost a key or a row:\n%s", b)
	}

	const corrupt = `{"soak": `
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (&SoakReport{}).SaveJSON(path); err == nil {
		t.Fatal("corrupt record overwritten without an error")
	}
	if err := (&QPSReport{}).AppendJSON(path); err == nil {
		t.Fatal("corrupt record appended to without an error")
	}
	if b, _ := os.ReadFile(path); string(b) != corrupt {
		t.Fatalf("corrupt record was modified: %q", b)
	}
}

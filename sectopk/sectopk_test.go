package sectopk_test

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/sectopk"
)

// testOpts keeps test key material small and fast.
func testOpts(extra ...sectopk.Option) []sectopk.Option {
	return append([]sectopk.Option{
		sectopk.WithKeyBits(256),
		sectopk.WithMaxScoreBits(20),
	}, extra...)
}

func demoRelation() *sectopk.Relation {
	return &sectopk.Relation{
		Name: "demo",
		Rows: [][]int64{
			{10, 3, 2},
			{8, 8, 0},
			{5, 7, 6},
			{3, 2, 8},
			{1, 1, 1},
		},
	}
}

// localRig stands up owner + crypto cloud + data cloud in-process.
func localRig(t testing.TB, relation string, opts ...sectopk.Option) (*sectopk.Owner, *sectopk.CryptoCloud, *sectopk.DataCloud, *sectopk.EncryptedRelation) {
	t.Helper()
	ctx := context.Background()
	owner, err := sectopk.NewOwner(testOpts(opts...)...)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	er, err := owner.Encrypt(demoRelation())
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	cc := sectopk.NewCryptoCloud(testOpts(opts...)...)
	t.Cleanup(cc.Close)
	if err := cc.Register(relation, owner.Keys()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	dc := sectopk.NewDataCloud(testOpts(opts...)...)
	t.Cleanup(dc.Close)
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatalf("ConnectLocal: %v", err)
	}
	if err := dc.Host(ctx, relation, er); err != nil {
		t.Fatalf("Host: %v", err)
	}
	return owner, cc, dc, er
}

func runSession(t testing.TB, owner *sectopk.Owner, dc *sectopk.DataCloud, relation string, er *sectopk.EncryptedRelation, q sectopk.Query, opts ...sectopk.QueryOption) []sectopk.Result {
	t.Helper()
	tk, err := owner.Token(er, q)
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	ans, err := dc.Execute(context.Background(), sectopk.TopKRequest(relation, tk, opts...))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	out, err := owner.Reveal(er, ans.TopK)
	if err != nil {
		t.Fatalf("Reveal: %v", err)
	}
	return out
}

// TestEndToEndLocal runs the full public-API pipeline over the
// in-process transport across all three query modes.
func TestEndToEndLocal(t *testing.T) {
	owner, _, dc, er := localRig(t, "demo")
	want := []sectopk.Result{{Object: 2, Score: 18}, {Object: 1, Score: 16}}
	for _, mode := range []sectopk.Mode{sectopk.ModeFull, sectopk.ModeEliminate, sectopk.ModeBatched} {
		got := runSession(t, owner, dc, "demo", er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2},
			sectopk.WithMode(mode))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: top-2 = %+v, want %+v", mode, got, want)
		}
	}
	if tr := dc.Traffic(); tr.Rounds == 0 || tr.Bytes == 0 {
		t.Fatalf("no traffic recorded: %+v", dc.Traffic())
	}
	if len(dc.LeakageEvents()) == 0 {
		t.Fatal("S1 leakage ledger empty")
	}
}

// TestExecuteAccounting checks the per-query accounting on the answer.
func TestExecuteAccounting(t *testing.T) {
	owner, cc, dc, er := localRig(t, "demo")
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := dc.Execute(context.Background(), sectopk.TopKRequest("demo", tk, sectopk.WithMode(sectopk.ModeEliminate)))
	if err != nil {
		t.Fatal(err)
	}
	res := ans.TopK
	if res.Len() != 2 || res.Depth == 0 || !res.Halted {
		t.Fatalf("unexpected result shape: len=%d depth=%d halted=%v", res.Len(), res.Depth, res.Halted)
	}
	if tr := ans.Traffic; tr.Rounds == 0 || tr.Bytes == 0 {
		t.Fatalf("answer traffic empty: %+v", tr)
	}
	if len(cc.LeakageEvents()) == 0 {
		t.Fatal("S2 leakage ledger empty")
	}
}

// TestLeakageWindow: each cloud keeps its newest cloud.LedgerWindow
// leakage events. After queries enough to pass both windows three times,
// both LeakageEvents lengths are at or below the window and end with the
// newest query's events. S1 names each run's token by a digest: one token
// run twice gives two equal query-pattern lines, another k another line.
func TestLeakageWindow(t *testing.T) {
	owner, cc, dc, er := localRig(t, "demo")
	run := func(q sectopk.Query) {
		t.Helper()
		tk, err := owner.Token(er, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dc.Execute(context.Background(), sectopk.TopKRequest("demo", tk)); err != nil {
			t.Fatal(err)
		}
	}
	// events runs q and returns what it added to each cloud's window,
	// which must still have room.
	events := func(q sectopk.Query) (s1, s2 []string) {
		t.Helper()
		n1, n2 := len(dc.LeakageEvents()), len(cc.LeakageEvents())
		run(q)
		s1, s2 = dc.LeakageEvents()[n1:], cc.LeakageEvents()[n2:]
		if len(s1) == 0 || len(s2) == 0 {
			t.Fatalf("%+v left %d S1 and %d S2 events", q, len(s1), len(s2))
		}
		return s1, s2
	}
	pattern := func(s1 []string) string {
		t.Helper()
		var lines []string
		for _, ev := range s1 {
			if strings.HasPrefix(ev, "[S1] Token: query pattern: token ") {
				lines = append(lines, ev)
			}
		}
		if len(lines) != 1 {
			t.Fatalf("query-pattern lines of one query: %q", lines)
		}
		return lines[0]
	}

	newest := sectopk.Query{Attrs: []int{0, 1, 2}, K: 2}
	want1, want2 := events(newest)
	again, _ := events(newest)
	other, _ := events(sectopk.Query{Attrs: []int{0, 1, 2}, K: 3})
	if p := pattern(want1); p != pattern(again) || p == pattern(other) || !strings.HasSuffix(p, " (m=3, k=2)") {
		t.Fatalf("query pattern of k=2, k=2, k=3: %q, %q, %q", p, pattern(again), pattern(other))
	}

	// The cheapest query that reaches S2 passes both windows three times.
	bulk := sectopk.Query{Attrs: []int{0}, K: 1}
	b1, b2 := events(bulk)
	runs := 3*cloud.LedgerWindow/min(len(b1), len(b2)) + 1
	for i := 0; i < runs; i++ {
		run(bulk)
		if i%512 == 0 {
			if n1, n2 := len(dc.LeakageEvents()), len(cc.LeakageEvents()); n1 > cloud.LedgerWindow || n2 > cloud.LedgerWindow {
				t.Fatalf("after %d queries: %d S1 and %d S2 events kept", i+1, n1, n2)
			}
		}
	}
	run(newest)
	for _, c := range []struct {
		party     string
		got, want []string
	}{{"S1", dc.LeakageEvents(), want1}, {"S2", cc.LeakageEvents(), want2}} {
		if len(c.got) != cloud.LedgerWindow {
			t.Fatalf("%s keeps %d events, want the window of %d", c.party, len(c.got), cloud.LedgerWindow)
		}
		if tail := c.got[len(c.got)-len(c.want):]; !reflect.DeepEqual(tail, c.want) {
			t.Fatalf("%s window ends %q, want the newest query's %q", c.party, tail, c.want)
		}
	}
}

// TestTypedErrorsFacade checks the error taxonomy at the public surface.
func TestTypedErrorsFacade(t *testing.T) {
	owner, cc, dc, er := localRig(t, "demo")
	ctx := context.Background()

	// Invalid tokens.
	if _, err := owner.Token(er, sectopk.Query{Attrs: []int{0}, K: 0}); !errors.Is(err, sectopk.ErrInvalidToken) {
		t.Fatalf("k=0: want ErrInvalidToken, got %v", err)
	}
	if _, err := owner.Token(er, sectopk.Query{Attrs: []int{99}, K: 1}); !errors.Is(err, sectopk.ErrInvalidToken) {
		t.Fatalf("bad attr: want ErrInvalidToken, got %v", err)
	}
	// Unknown relation.
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Execute(ctx, sectopk.TopKRequest("ghost", tk)); !errors.Is(err, sectopk.ErrUnknownRelation) {
		t.Fatalf("want ErrUnknownRelation, got %v", err)
	}
	// Duplicate registration / hosting.
	if err := cc.Register("demo", owner.Keys()); !errors.Is(err, sectopk.ErrRelationExists) {
		t.Fatalf("duplicate Register: want ErrRelationExists, got %v", err)
	}
	if err := dc.Host(ctx, "demo", er); !errors.Is(err, sectopk.ErrRelationExists) {
		t.Fatalf("duplicate Host: want ErrRelationExists, got %v", err)
	}
	// Hosting a relation S2 does not serve.
	if err := dc.Host(ctx, "unregistered", er); !errors.Is(err, sectopk.ErrUnknownRelation) {
		t.Fatalf("Host of unregistered relation: want ErrUnknownRelation, got %v", err)
	}
}

// TestEndToEndTCP runs the pipeline with S1 and S2 as separate parties
// over a real TCP connection, and checks typed errors survive the wire.
func TestEndToEndTCP(t *testing.T) {
	ctx := context.Background()
	owner, err := sectopk.NewOwner(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	er, err := owner.Encrypt(demoRelation())
	if err != nil {
		t.Fatal(err)
	}
	cc := sectopk.NewCryptoCloud(testOpts()...)
	defer cc.Close()
	if err := cc.Register("demo", owner.Keys()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()
	go func() { _ = cc.Serve(serveCtx, l) }()

	dc := sectopk.NewDataCloud(testOpts()...)
	defer dc.Close()
	if err := dc.Dial(ctx, l.Addr().String()); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := dc.Host(ctx, "ghost", er); !errors.Is(err, sectopk.ErrUnknownRelation) {
		t.Fatalf("Host ghost over TCP: want ErrUnknownRelation, got %v", err)
	}
	if err := dc.Host(ctx, "demo", er); err != nil {
		t.Fatalf("Host: %v", err)
	}
	got := runSession(t, owner, dc, "demo", er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2},
		sectopk.WithMode(sectopk.ModeEliminate))
	want := []sectopk.Result{{Object: 2, Score: 18}, {Object: 1, Score: 16}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TCP top-2 = %+v, want %+v", got, want)
	}
}

// TestMultiRelationIsolation registers two relations (separate owners,
// separate key material) on ONE crypto cloud, interleaves queries
// against both, and checks each stream of results is identical to a
// dedicated single-relation rig's.
func TestMultiRelationIsolation(t *testing.T) {
	ctx := context.Background()
	relA := demoRelation()
	relB := &sectopk.Relation{
		Name: "other",
		Rows: [][]int64{
			{1, 9, 4},
			{7, 2, 2},
			{3, 3, 9},
			{9, 8, 1},
			{2, 6, 5},
			{4, 4, 4},
		},
	}
	queries := []sectopk.Query{
		{Attrs: []int{0, 1, 2}, K: 2},
		{Attrs: []int{0, 1}, K: 3},
		{Attrs: []int{2}, K: 1},
	}

	// Reference: two dedicated single-relation rigs.
	single := func(rel *sectopk.Relation) [][]sectopk.Result {
		owner, err := sectopk.NewOwner(testOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		er, err := owner.Encrypt(rel)
		if err != nil {
			t.Fatal(err)
		}
		cc := sectopk.NewCryptoCloud(testOpts()...)
		defer cc.Close()
		if err := cc.Register(rel.Name, owner.Keys()); err != nil {
			t.Fatal(err)
		}
		dc := sectopk.NewDataCloud(testOpts()...)
		defer dc.Close()
		if err := dc.ConnectLocal(ctx, cc); err != nil {
			t.Fatal(err)
		}
		if err := dc.Host(ctx, rel.Name, er); err != nil {
			t.Fatal(err)
		}
		var out [][]sectopk.Result
		for _, q := range queries {
			out = append(out, runSession(t, owner, dc, rel.Name, er, q))
		}
		return out
	}
	wantA := single(relA)
	wantB := single(relB)

	// One crypto cloud serving both relations, queries interleaved.
	ownerA, err := sectopk.NewOwner(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ownerB, err := sectopk.NewOwner(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	erA, err := ownerA.Encrypt(relA)
	if err != nil {
		t.Fatal(err)
	}
	erB, err := ownerB.Encrypt(relB)
	if err != nil {
		t.Fatal(err)
	}
	cc := sectopk.NewCryptoCloud(testOpts()...)
	defer cc.Close()
	if err := cc.Register("A", ownerA.Keys()); err != nil {
		t.Fatal(err)
	}
	if err := cc.Register("B", ownerB.Keys()); err != nil {
		t.Fatal(err)
	}
	if got := cc.Relations(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("Relations = %v", got)
	}
	dc := sectopk.NewDataCloud(testOpts()...)
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if err := dc.Host(ctx, "A", erA); err != nil {
		t.Fatal(err)
	}
	if err := dc.Host(ctx, "B", erB); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		gotA := runSession(t, ownerA, dc, "A", erA, q)
		gotB := runSession(t, ownerB, dc, "B", erB, q)
		if !reflect.DeepEqual(gotA, wantA[i]) {
			t.Fatalf("query %d relation A: multi-rig %+v != single-rig %+v", i, gotA, wantA[i])
		}
		if !reflect.DeepEqual(gotB, wantB[i]) {
			t.Fatalf("query %d relation B: multi-rig %+v != single-rig %+v", i, gotB, wantB[i])
		}
	}
}

// TestFacadeCancellation checks cooperative cancellation at the public
// surface: an already-canceled context fails fast with context.Canceled.
func TestFacadeCancellation(t *testing.T) {
	owner, _, dc, er := localRig(t, "demo")
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := sectopk.TopKRequest("demo", tk)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dc.Execute(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The data cloud (and its connection) remain usable for a fresh context.
	if _, err := dc.Execute(context.Background(), req); err != nil {
		t.Fatalf("data cloud unusable after canceled run: %v", err)
	}
}

// TestSecureJoinFacade runs the Section 12 join through the public API
// and checks it against the plaintext oracle.
func TestSecureJoinFacade(t *testing.T) {
	ctx := context.Background()
	r1 := &sectopk.Relation{Name: "teams", Rows: [][]int64{
		{1, 90, 12}, {2, 75, 7}, {3, 82, 20}, {2, 88, 5},
	}}
	r2 := &sectopk.Relation{Name: "budgets", Rows: [][]int64{
		{2, 40, 3}, {3, 55, 6}, {1, 30, 2}, {5, 99, 9},
	}}
	q := sectopk.JoinQuery{JoinAttr1: 0, JoinAttr2: 0, ScoreAttr1: 1, ScoreAttr2: 1,
		Project1: []int{2}, Project2: []int{2}, K: 3}

	jo, err := sectopk.NewJoinOwner(sectopk.WithKeyBits(256), sectopk.WithMaxScoreBits(16))
	if err != nil {
		t.Fatal(err)
	}
	er1, err := jo.Encrypt(r1)
	if err != nil {
		t.Fatal(err)
	}
	er2, err := jo.Encrypt(r2)
	if err != nil {
		t.Fatal(err)
	}
	cc := sectopk.NewCryptoCloud(testOpts()...)
	defer cc.Close()
	if err := cc.Register("hr", jo.Keys()); err != nil {
		t.Fatal(err)
	}
	dc := sectopk.NewDataCloud(testOpts()...)
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if err := dc.HostJoin(ctx, "hr", er1, er2); err != nil {
		t.Fatalf("HostJoin: %v", err)
	}
	tk, err := jo.Token(er1, er2, q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := dc.Execute(ctx, sectopk.JoinRequest("hr", tk))
	if err != nil {
		t.Fatalf("join Execute: %v", err)
	}
	got, err := jo.Reveal(ans.Join)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sectopk.PlainTopKJoin(r1, r2, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("join returned %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			t.Fatalf("tuple %d score %d, want %d", i, got[i].Score, want[i].Score)
		}
	}
	if ans.Traffic.Rounds == 0 {
		t.Fatal("join answer recorded no traffic")
	}
}

// TestPersistenceRoundTrip moves every artifact through its file format:
// owner bundle, keys, relation, token, result.
func TestPersistenceRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	owner, err := sectopk.NewOwner(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	er, err := owner.Encrypt(demoRelation())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]string{
		"owner": dir + "/owner.bundle", "keys": dir + "/s2.keys",
		"rel": dir + "/relation.er", "tok": dir + "/query.tk", "res": dir + "/result.items",
	}
	if err := owner.Save(paths["owner"]); err != nil {
		t.Fatal(err)
	}
	if err := owner.Keys().Save(paths["keys"]); err != nil {
		t.Fatal(err)
	}
	if err := er.Save(paths["rel"]); err != nil {
		t.Fatal(err)
	}
	if err := tk.Save(paths["tok"]); err != nil {
		t.Fatal(err)
	}

	// A fresh set of processes loads everything back.
	keys, err := sectopk.LoadKeys(paths["keys"])
	if err != nil {
		t.Fatal(err)
	}
	er2, err := sectopk.LoadEncryptedRelation(paths["rel"])
	if err != nil {
		t.Fatal(err)
	}
	if er2.Name() != "demo" || er2.Rows() != 5 || er2.Attributes() != 3 {
		t.Fatalf("reloaded relation shape: %s %dx%d", er2.Name(), er2.Rows(), er2.Attributes())
	}
	tk2, err := sectopk.LoadToken(paths["tok"])
	if err != nil {
		t.Fatal(err)
	}
	cc := sectopk.NewCryptoCloud(testOpts()...)
	defer cc.Close()
	if err := cc.Register("demo", keys); err != nil {
		t.Fatal(err)
	}
	dc := sectopk.NewDataCloud(testOpts()...)
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if err := dc.Host(ctx, "demo", er2); err != nil {
		t.Fatal(err)
	}
	ans, err := dc.Execute(ctx, sectopk.TopKRequest("demo", tk2))
	if err != nil {
		t.Fatal(err)
	}
	res := ans.TopK
	if err := res.Save(paths["res"]); err != nil {
		t.Fatal(err)
	}
	res2, err := sectopk.LoadEncryptedResult(paths["res"])
	if err != nil {
		t.Fatal(err)
	}
	if res2.Depth != res.Depth || res2.Halted != res.Halted || res2.Len() != res.Len() {
		t.Fatalf("reloaded result mismatch: %+v vs %+v", res2, res)
	}
	owner2, err := sectopk.LoadOwner(paths["owner"])
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner2.Reveal(er2, res2)
	if err != nil {
		t.Fatalf("Reveal with restored owner: %v", err)
	}
	want := []sectopk.Result{{Object: 2, Score: 18}, {Object: 1, Score: 16}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored pipeline top-2 = %+v, want %+v", got, want)
	}
}

// TestKeyMaterialFilePermissions: every file that holds keys or plaintext
// — the crypto cloud's keys, the owner bundles, the mutable-relation
// mirror — is written owner-only, and a missing file fails to load.
func TestKeyMaterialFilePermissions(t *testing.T) {
	dir := t.TempDir()
	owner, err := sectopk.NewOwner(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	jowner, err := sectopk.NewJoinOwner(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	rel := demoRelation()
	er, err := owner.Encrypt(rel)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := owner.NewMutable(rel, er)
	if err != nil {
		t.Fatal(err)
	}
	for name, save := range map[string]func(string) error{
		"s2.keys":       owner.Keys().Save,
		"owner.bundle":  owner.Save,
		"join.bundle":   jowner.Save,
		"mutable.owner": mr.Save,
	} {
		path := filepath.Join(dir, name)
		if err := save(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm() != 0o600 {
			t.Errorf("%s permissions = %v, want 0600", name, info.Mode().Perm())
		}
	}
	keys, err := sectopk.LoadKeys(filepath.Join(dir, "s2.keys"))
	if err != nil || keys == nil {
		t.Fatalf("LoadKeys: %v", err)
	}
	if _, err := sectopk.LoadKeys(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

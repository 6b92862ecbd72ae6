package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/sectopk"
)

// flakyListener closes its first failFirst accepted connections before
// any byte is exchanged, then serves normally — the shape of a querier
// racing a data cloud that is still starting.
type flakyListener struct {
	net.Listener
	mu        sync.Mutex
	failFirst int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		reject := l.failFirst > 0
		if reject {
			l.failFirst--
		}
		l.mu.Unlock()
		if !reject {
			return conn, nil
		}
		conn.Close()
	}
}

// TestDialClientFlakyListener checks the querier's dial path rides out a
// listener that tears down its first connections (backoff instead of the
// old fixed-interval loop) and then completes the client handshake.
func TestDialClientFlakyListener(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The client plane's Hello needs no hosted relations or S2 link, so
	// an empty data cloud serves as the handshake peer.
	dc := sectopk.NewDataCloud()
	defer dc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- dc.ServeClients(ctx, &flakyListener{Listener: l, failFirst: 2}) }()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("ServeClients did not stop")
		}
	}()

	client, err := dialClient(context.Background(), l.Addr().String(), 30*time.Second)
	if err != nil {
		t.Fatalf("dialClient through flaky listener: %v", err)
	}
	client.Close()
}

// TestDialClientGivesUpTyped checks dialClient fails fast and typed when
// nothing ever listens: the wait window bounds the backoff, and the
// terminal error keeps the transport classification.
func TestDialClientGivesUpTyped(t *testing.T) {
	// Reserve an address nothing listens on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	start := time.Now()
	_, err = dialClient(context.Background(), addr, 300*time.Millisecond)
	if err == nil {
		t.Fatal("dialClient succeeded against a dead address")
	}
	if !errors.Is(err, sectopk.ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport classification", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("dialClient took %v, want the wait window to bound it", took)
	}
}

// TestProbeEndpoints drives /healthz, /readyz, and /metrics through
// every readiness phase: not connected, connected+hosted (ready), and
// draining/closed. /readyz bodies must parse as the structured JSON
// status in every phase.
func TestProbeEndpoints(t *testing.T) {
	ctx := context.Background()
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	dc := sectopk.NewDataCloud(sectopk.WithKeyBits(256))
	defer dc.Close()
	var hosted atomic.Bool
	startProbes(pl, s1Ready(dc, &hosted, "demo"))
	base := "http://" + pl.Addr().String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	parseReady := func(body string) readyStatus {
		t.Helper()
		var st readyStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/readyz body %q is not JSON: %v", body, err)
		}
		return st
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before connect = %d (%q), want 503", code, body)
	} else if st := parseReady(body); st.State != "not_ready" || st.Reason == "" {
		t.Fatalf("/readyz before connect = %+v, want not_ready with a reason", st)
	}

	// Stand up the minimal stack: keys on S2, one hosted relation on S1.
	owner, err := sectopk.NewOwner(sectopk.WithKeyBits(256), sectopk.WithMaxScoreBits(20))
	if err != nil {
		t.Fatal(err)
	}
	er, err := owner.Encrypt(&sectopk.Relation{Name: "demo", Rows: [][]int64{{3, 1}, {2, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	cc := sectopk.NewCryptoCloud(sectopk.WithKeyBits(256))
	defer cc.Close()
	if err := cc.Register("demo", owner.Keys()); err != nil {
		t.Fatal(err)
	}
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before hosting = %d (%q), want 503", code, body)
	}
	if err := dc.Host(ctx, "demo", er); err != nil {
		t.Fatal(err)
	}
	hosted.Store(true)
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz when serving = %d (%q), want 200", code, body)
	} else if st := parseReady(body); st.State != "ready" || st.Epoch != 1 {
		t.Fatalf("/readyz when serving = %+v, want state=ready epoch=1", st)
	}
	// Land one query so the registry has families to expose, then check
	// the exposition came through the probe listener.
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Execute(ctx, sectopk.TopKRequest("demo", tk)); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	} else if !strings.Contains(body, "# TYPE sectopk_queries_total counter") {
		t.Fatalf("/metrics body = %q, want the query counter family", body)
	}

	dc.Close()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close = %d (%q), want 503", code, body)
	} else if st := parseReady(body); st.State != "not_ready" || st.Reason != "draining" {
		t.Fatalf("/readyz after Close = %+v, want not_ready/draining", st)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after Close = %d, want 200 (liveness is process-level)", code)
	}
}

// TestProbeMemberEpoch: a cluster member's /readyz body reports the epoch
// of the share it hosts, beside its identity and shard set.
func TestProbeMemberEpoch(t *testing.T) {
	ctx := context.Background()
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	opts := []sectopk.Option{sectopk.WithKeyBits(256), sectopk.WithMaxScoreBits(20)}
	owner, err := sectopk.NewOwner(append(opts, sectopk.WithShards(2))...)
	if err != nil {
		t.Fatal(err)
	}
	er, err := owner.Encrypt(&sectopk.Relation{Name: "demo", Rows: [][]int64{{3, 1}, {2, 2}, {1, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	cc := sectopk.NewCryptoCloud(opts...)
	defer cc.Close()
	if err := cc.Register("demo", owner.Keys()); err != nil {
		t.Fatal(err)
	}
	dc := sectopk.NewDataCloud(append(opts, sectopk.WithMemberID("m0"))...)
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	sub, err := er.Subset(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.HostShards(ctx, "demo", sub); err != nil {
		t.Fatal(err)
	}
	var hosted atomic.Bool
	hosted.Store(true)
	startProbes(pl, s1Ready(dc, &hosted, "demo"))

	resp, err := http.Get("http://" + pl.Addr().String() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"epoch":1`) {
		t.Fatalf("member /readyz = %d %q, want 200 with the share's epoch 1", resp.StatusCode, body)
	}
	var st readyStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Member != "m0" || len(st.Shards["demo"]) != 1 || st.Shards["demo"][0] != 1 {
		t.Fatalf("member /readyz = %+v, want member m0 hosting shard 1 of demo", st)
	}
}

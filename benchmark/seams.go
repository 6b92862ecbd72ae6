package main

// seams.go is the only file of the benchmark that imports internal/...
// packages. Everything the per-layer ledger measures below the facade is
// reached from here, by calling public functions of those packages or by
// wrapping the transport.Caller / transport.Responder interface seams.
// README.md lists every symbol used; a refactor that removes one of them
// must land a benchmark change first.

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"hash/maphash"
	"math/big"
	mrand "math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/knn"
	"repro/internal/nra"
	"repro/internal/paillier"
	"repro/internal/prf"
	"repro/internal/protocols"
	"repro/internal/qos"
	"repro/internal/secio"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/zmath"
)

// s2Methods are the protocol rounds S2 serves, in the order the ledger
// prints them.
var s2Methods = []string{
	cloud.MethodEqBits, cloud.MethodRecover, cloud.MethodCompare, cloud.MethodCompareHidden,
	cloud.MethodMult, cloud.MethodDedup, cloud.MethodFilter,
}

func ehlParams() ehl.Params { return ehl.Params{Kind: ehl.KindPlus, S: ehlDigests} }

func coreParams() core.Params {
	return core.Params{KeyBits: keyBits, EHL: ehlParams(), MaxScoreBits: maxScoreBits}
}

// oracleTopKScores is nra.TopKExact's score sequence: the ground truth
// every top-k answer is checked against.
func oracleTopKScores(rows [][]int64, attrs []int, k int) ([]int64, error) {
	res, err := nra.TopKExact(&dataset.Relation{Name: "oracle", Rows: rows}, attrs, nil, k)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(res))
	for i, r := range res {
		out[i] = r.Worst
	}
	return out, nil
}

// ---------------------------------------------------------------------
// The two wrapped seams.

// timedCaller is the timing transport.Caller in front of the batcher: it
// sees every logical S2 call S1's stub makes, under the context of the
// query that made it.
type timedCaller struct {
	inner transport.Caller
	t     *tracer
	seed  maphash.Seed
}

func (c *timedCaller) Call(ctx context.Context, method string, req, resp any) error {
	query := rootOf(ctx)
	if query == 0 {
		return c.inner.Call(ctx, method, req, resp)
	}
	id := c.t.nextID.Add(1)
	// The batcher encodes the request the same way, so the responder side
	// can recognise this call by its bytes.
	if body, err := transport.Encode(req); err == nil {
		c.t.calls.Store(maphash.Bytes(c.seed, body), callRef{query: query, span: id})
	}
	start := c.t.now()
	err := c.inner.Call(ctx, method, req, resp)
	c.t.record(span{ID: id, Parent: query, Query: query, Name: spanS1Call + method, StartUs: start, EndUs: c.t.now()})
	return err
}

// timedResponder is the timing transport.Responder in front of S2. A
// batch envelope is split so each logical call gets its own span: every
// item is handed to the real responder as a one-item envelope, which keeps
// S2's own dispatch and error encoding on the measured path.
type timedResponder struct {
	inner transport.Responder
	t     *tracer
	seed  maphash.Seed
}

func (r *timedResponder) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	if method != cloud.MethodBatch {
		return r.serveOne(ctx, method, body, func() ([]byte, error) { return r.inner.Serve(ctx, method, body) })
	}
	var req cloud.BatchRequest
	if err := transport.Decode(body, &req); err != nil {
		return r.inner.Serve(ctx, method, body)
	}
	reply := cloud.BatchReply{Items: make([]cloud.BatchResult, len(req.Items))}
	errs := make([]error, len(req.Items))
	// S2 fans a batch out over all cores; so does this.
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, item := range req.Items {
		wg.Add(1)
		slots <- struct{}{}
		go func(i int, item cloud.BatchItem) {
			defer wg.Done()
			defer func() { <-slots }()
			reply.Items[i], errs[i] = r.serveItem(ctx, item)
		}(i, item)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return transport.Encode(&reply)
}

func (r *timedResponder) serveItem(ctx context.Context, item cloud.BatchItem) (cloud.BatchResult, error) {
	single, err := transport.Encode(&cloud.BatchRequest{Items: []cloud.BatchItem{item}})
	if err != nil {
		return cloud.BatchResult{}, err
	}
	var one cloud.BatchReply
	_, err = r.serveOne(ctx, item.Method, item.Body, func() ([]byte, error) {
		out, err := r.inner.Serve(ctx, cloud.MethodBatch, single)
		if err != nil {
			return nil, err
		}
		return out, transport.Decode(out, &one)
	})
	if err != nil {
		return cloud.BatchResult{}, err
	}
	if len(one.Items) != 1 {
		return cloud.BatchResult{}, fmt.Errorf("benchmark: S2 answered a one-item batch with %d items", len(one.Items))
	}
	return one.Items[0], nil
}

func (r *timedResponder) serveOne(ctx context.Context, method string, body []byte, serve func() ([]byte, error)) ([]byte, error) {
	ref, ok := r.t.calls.LoadAndDelete(maphash.Bytes(r.seed, body))
	if !ok {
		if method != cloud.MethodHello {
			r.t.unmatched.Add(1)
		}
		return serve()
	}
	start := r.t.now()
	out, err := serve()
	c := ref.(callRef)
	r.t.record(span{ID: r.t.nextID.Add(1), Parent: c.span, Query: c.query, Name: spanS2Serve + method, StartUs: start, EndUs: r.t.now()})
	return out, err
}

// ---------------------------------------------------------------------
// Hand-assembled S1/S2: the same pieces the facade wires together.

// handStack is one S2 service and the S1-side caller that reaches it,
// either in process (transport.NewLocal) or over loopback TCP with the
// two timing wrappers interposed.
type handStack struct {
	svc    *cloud.Service
	stats  *transport.Stats
	caller transport.Caller
	// link is the raw connection-level caller (nil for the local stack):
	// an empty call through it measures the link's round trip.
	link transport.Caller

	closers []func()
}

func (h *handStack) onClose(f func()) { h.closers = append(h.closers, f) }

func (h *handStack) close() {
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
}

// newLocalStack wires S1 to S2 in process. Bytes are still the true wire
// sizes: the local transport serialises both directions.
func newLocalStack() *handStack {
	h := &handStack{svc: cloud.NewService(), stats: transport.NewStats()}
	h.caller = transport.NewLocal(h.svc, h.stats)
	h.onClose(h.svc.Close)
	return h
}

// newTracedStack serves S2 on loopback TCP behind the timing responder,
// connects S1 to it (through a delay proxy when wanDelay > 0) and puts the
// timing caller in front of the batcher — the layering of
// DataCloud.Dial, with the two wrappers added.
func newTracedStack(ctx context.Context, t *tracer, wanDelay time.Duration) (*handStack, error) {
	h := &handStack{svc: cloud.NewService(), stats: transport.NewStats()}
	h.onClose(h.svc.Close)
	seed := maphash.MakeSeed()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, stop := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = transport.Serve(sctx, l, &timedResponder{inner: h.svc, t: t, seed: seed}) // returns on stop
	}()
	h.onClose(func() { stop(); <-served })
	addr := l.Addr().String()
	if wanDelay > 0 {
		proxy, err := newDelayProxy(addr, wanDelay)
		if err != nil {
			h.close()
			return nil, err
		}
		h.onClose(proxy.Close)
		addr = proxy.Addr()
	}
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		h.close()
		return nil, err
	}
	mux, err := transport.Connect(ctx, conn, h.stats)
	if err != nil {
		conn.Close()
		h.close()
		return nil, err
	}
	batcher := cloud.NewBatcher(mux)
	// Same order as DataCloud.Close: the connection first, then the batcher.
	h.onClose(batcher.Close)
	h.onClose(func() { mux.Close() })
	h.link = mux
	h.caller = &timedCaller{inner: batcher, t: t, seed: seed}
	return h, nil
}

// client registers keys under id at S2 and returns S1's stub for it.
func (h *handStack) client(ctx context.Context, id string, keys *cloud.KeyMaterial) (*cloud.Client, error) {
	if err := h.svc.Register(id, keys, nil); err != nil {
		return nil, err
	}
	c, err := cloud.NewClient(h.caller, &keys.Paillier.PublicKey, nil, cloud.WithRelation(id))
	if err != nil {
		return nil, err
	}
	h.onClose(c.Close)
	if err := c.Handshake(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// rtt times one empty call (a Hello) through the raw link.
func (h *handStack) rtt(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	err := cloud.Handshake(ctx, h.link, "")
	return time.Since(t0), err
}

// wire is the S1-S2 traffic so far.
func (h *handStack) wire() (rounds, bytes int64) { return h.stats.Rounds(), h.stats.Bytes() }

// handTopK is a hand-assembled top-k engine over one stack.
type handTopK struct {
	scheme *core.Scheme
	client *cloud.Client
	engine *shard.Engine
	token  *core.Token
	reveal *core.Revealer
	rows   [][]int64
	attrs  []int
}

// newHandTopK encrypts rows into shards shards and builds the engine the
// facade would host for them.
func newHandTopK(ctx context.Context, h *handStack, id string, rows [][]int64, shards, k int) (*handTopK, error) {
	scheme, err := core.NewScheme(coreParams())
	if err != nil {
		return nil, err
	}
	rel := &dataset.Relation{Name: id, Rows: rows}
	var sh *shard.Relation
	if shards <= 1 {
		er, err := scheme.EncryptRelation(rel)
		if err != nil {
			return nil, err
		}
		sh, err = shard.New([]*core.EncryptedRelation{er})
		if err != nil {
			return nil, err
		}
	} else if sh, err = shard.Encrypt(scheme, rel, shards); err != nil {
		return nil, err
	}
	client, err := h.client(ctx, id, scheme.KeyMaterial())
	if err != nil {
		return nil, err
	}
	engine, err := shard.NewEngine(client, sh)
	if err != nil {
		return nil, err
	}
	q := topkQuery(k)
	tk, err := scheme.TokenFor(sh.N, sh.M, q.Attrs, nil, k)
	if err != nil {
		return nil, err
	}
	rev, err := scheme.NewRevealer(sh.N)
	if err != nil {
		return nil, err
	}
	return &handTopK{scheme: scheme, client: client, engine: engine, token: tk, reveal: rev,
		rows: rows, attrs: q.Attrs}, nil
}

// secQuery runs the engine's SecQuery with the facade's default options
// and returns the scan depth and the encrypted items.
func (e *handTopK) secQuery(ctx context.Context) (int, []protocols.Item, error) {
	res, err := e.engine.SecQuery(ctx, e.token, core.Options{})
	if err != nil {
		return 0, nil, err
	}
	return res.Depth, res.Items, nil
}

// check reveals items and compares them with the oracle.
func (e *handTopK) check(items []protocols.Item) error {
	revealed, err := e.reveal.RevealTopK(items)
	if err != nil {
		return err
	}
	want, err := oracleTopKScores(e.rows, e.attrs, e.token.K)
	if err != nil {
		return err
	}
	if len(revealed) != len(want) {
		return fmt.Errorf("hand-assembled top-k returned %d items, oracle %d", len(revealed), len(want))
	}
	for i, r := range revealed {
		if r.Worst != want[i] {
			return fmt.Errorf("hand-assembled top-k rank %d scores %d, oracle %d", i+1, r.Worst, want[i])
		}
	}
	return nil
}

// candidatesAndMerge runs the two halves of a sharded query separately:
// Engine.Candidates, then shard.Merge. It reports each half's time and
// whether the merge-bound check certified the result.
func (e *handTopK) candidatesAndMerge(ctx context.Context) (candMs, mergeMs float64, certified bool, err error) {
	t0 := time.Now()
	sets, err := e.engine.Candidates(ctx, e.token, core.Options{})
	if err != nil {
		return 0, 0, false, err
	}
	candMs = msSince(t0)
	t1 := time.Now()
	res, certified, err := shard.Merge(ctx, e.client, e.token.K, core.MagBits(maxScoreBits, e.token), sets)
	if err != nil {
		return 0, 0, false, err
	}
	mergeMs = msSince(t1)
	if certified {
		err = e.check(res.Items)
	}
	return candMs, mergeMs, certified, err
}

// answerCodec times one round trip of a top-k answer through the secio
// codec the client wire uses.
func answerCodec(items []protocols.Item, depth int) error {
	var buf bytes.Buffer
	if err := secio.WriteQueryResult(&buf, items, depth, true); err != nil {
		return err
	}
	_, _, _, err := secio.ReadQueryResult(&buf)
	return err
}

// handKNN is a hand-assembled kNN engine sharing a top-k engine's keys,
// as Owner.EncryptKNN does.
type handKNN struct {
	engine *knn.Engine
	reveal *knn.Revealer
	rel    *dataset.Relation
	point  []int64
	k      int
}

func newHandKNN(ctx context.Context, h *handStack, id string, keys *cloud.KeyMaterial, rows [][]int64, point []int64, k int) (*handKNN, error) {
	scheme, err := knn.NewScheme(keys, ehlParams(), maxScoreBits)
	if err != nil {
		return nil, err
	}
	rel := &dataset.Relation{Name: id, Rows: rows}
	db, err := scheme.Encrypt(rel)
	if err != nil {
		return nil, err
	}
	client, err := h.client(ctx, id, keys)
	if err != nil {
		return nil, err
	}
	engine, err := knn.NewEngine(client, db, maxScoreBits)
	if err != nil {
		return nil, err
	}
	rev, err := scheme.NewRevealer(len(rows))
	if err != nil {
		return nil, err
	}
	return &handKNN{engine: engine, reveal: rev, rel: rel, point: point, k: k}, nil
}

// query runs one kNN query and checks it against knn.PlainKNN.
func (e *handKNN) query(ctx context.Context) (float64, error) {
	t0 := time.Now()
	items, err := e.engine.Query(ctx, e.point, e.k)
	if err != nil {
		return 0, err
	}
	ms := msSince(t0)
	_, want, err := knn.PlainKNN(e.rel, e.point, e.k)
	if err != nil {
		return 0, err
	}
	if len(items) != len(want) {
		return 0, fmt.Errorf("hand-assembled kNN returned %d items, oracle %d", len(items), len(want))
	}
	for i, it := range items {
		_, dist, err := e.reveal.Reveal(it)
		if err != nil {
			return 0, err
		}
		if dist != want[i] {
			return 0, fmt.Errorf("hand-assembled kNN rank %d at distance %d, oracle %d", i+1, dist, want[i])
		}
	}
	return ms, nil
}

// handJoin is a hand-assembled top-k join engine.
type handJoin struct {
	scheme *join.Scheme
	engine *join.Engine
	token  *join.Token
	want   []join.RevealedTuple
}

func newHandJoin(ctx context.Context, h *handStack, id string, in *inputs) (*handJoin, error) {
	scheme, err := join.NewScheme(join.Params{KeyBits: keyBits, EHL: ehlParams(), MaxScoreBits: maxScoreBits})
	if err != nil {
		return nil, err
	}
	r1 := &dataset.Relation{Name: in.join1.Name, Rows: in.join1.Rows}
	r2 := &dataset.Relation{Name: in.join2.Name, Rows: in.join2.Rows}
	er1, err := scheme.EncryptRelation(r1)
	if err != nil {
		return nil, err
	}
	er2, err := scheme.EncryptRelation(r2)
	if err != nil {
		return nil, err
	}
	client, err := h.client(ctx, id, scheme.KeyMaterial())
	if err != nil {
		return nil, err
	}
	engine, err := join.NewEngine(client, er1, er2, maxScoreBits)
	if err != nil {
		return nil, err
	}
	q := in.joinQuery
	tk, err := scheme.NewToken(er1, er2, q.JoinAttr1, q.JoinAttr2, q.ScoreAttr1, q.ScoreAttr2, q.Project1, q.Project2, q.K)
	if err != nil {
		return nil, err
	}
	want, err := join.PlainTopKJoin(r1, r2, q.JoinAttr1, q.JoinAttr2, q.ScoreAttr1, q.ScoreAttr2, q.Project1, q.Project2, q.K)
	if err != nil {
		return nil, err
	}
	return &handJoin{scheme: scheme, engine: engine, token: tk, want: want}, nil
}

// query runs one join and checks its score sequence against
// join.PlainTopKJoin.
func (e *handJoin) query(ctx context.Context) (float64, error) {
	t0 := time.Now()
	tuples, err := e.engine.SecJoin(ctx, e.token)
	if err != nil {
		return 0, err
	}
	ms := msSince(t0)
	got, err := e.scheme.Reveal(tuples)
	if err != nil {
		return 0, err
	}
	if len(got) != len(e.want) {
		return 0, fmt.Errorf("hand-assembled join returned %d tuples, oracle %d", len(got), len(e.want))
	}
	for i := range got {
		if got[i].Score != e.want[i].Score {
			return 0, fmt.Errorf("hand-assembled join rank %d scores %d, oracle %d", i+1, got[i].Score, e.want[i].Score)
		}
	}
	return ms, nil
}

// ---------------------------------------------------------------------
// Sub-protocols on fixed inputs.

// protoBench is one sub-protocol call on a fixed input. Each run reports
// its time and, from the transport counters, the S2 calls and bytes it
// cost (counts repeat exactly).
type protoBench struct {
	name string
	run  func(ctx context.Context) error
	// timeOnly rows report no calls or bytes.
	timeOnly bool
}

// protoItems / protoLists fix the sub-protocol input: 8 items, 3 lists.
const (
	protoItems = 8
	protoLists = 3
)

// newProtoBenches builds the fixed inputs over a local stack.
func newProtoBenches(ctx context.Context, h *handStack) ([]protoBench, error) {
	keys, err := cloud.NewKeyMaterial(keyBits)
	if err != nil {
		return nil, err
	}
	c, err := h.client(ctx, "protocols", keys)
	if err != nil {
		return nil, err
	}
	pk := &keys.Paillier.PublicKey
	master := prf.Key(bytes.Repeat([]byte{0x42}, prf.KeySize))
	hasher, err := ehl.NewHasher(master, ehlParams(), pk)
	if err != nil {
		return nil, err
	}
	enc := func(v int64) *paillier.Ciphertext {
		ct, e := pk.EncryptInt64(v)
		if e != nil && err == nil {
			err = e
		}
		return ct
	}
	list := func(obj uint64) *ehl.List {
		l, e := hasher.Build(obj)
		if e != nil && err == nil {
			err = e
		}
		return l
	}
	item := func(obj uint64, worst, best int64) protocols.Item {
		return protocols.Item{EHL: list(obj), Scores: []*paillier.Ciphertext{enc(worst), enc(best)}}
	}
	magBits := core.MagBits(maxScoreBits, &core.Token{K: 3, Lists: []int{0, 1, 2}})

	var as, bs []*paillier.Ciphertext
	items := make([]protocols.Item, protoItems)
	for i := 0; i < protoItems; i++ {
		as = append(as, enc(int64(1000+37*i)))
		bs = append(bs, enc(int64(1200-53*i)))
		// Objects 0..5 with two repeats, so dedup has duplicates to find.
		items[i] = item(uint64(i%6), int64(500+(i*7919)%400), int64(900+(i*104729)%400))
	}
	depth := make([]protocols.DepthItem, protoLists)
	hist := make([]protocols.ListHistory, protoLists)
	for j := 0; j < protoLists; j++ {
		for d := 0; d < 3; d++ {
			hist[j].EHLs = append(hist[j].EHLs, list(uint64((j+d)%4)))
			hist[j].Scores = append(hist[j].Scores, enc(int64(800-100*d-j)))
		}
		depth[j] = protocols.DepthItem{EHL: hist[j].EHLs[2], Score: hist[j].Scores[2]}
	}
	tracked := []protocols.Item{item(10, 700, 900), item(11, 650, 880), item(12, 600, 860), item(1, 550, 840), item(13, 500, 820)}
	gamma := []protocols.Item{item(1, 90, 800), item(14, 80, 790), item(15, 70, 780)}
	tuples := make([]protocols.JoinTuple, protoItems)
	for i := range tuples {
		score := int64(0)
		if i < joinMatches {
			score = int64(100 + i)
		}
		tuples[i] = protocols.JoinTuple{Score: enc(score), Attrs: []*paillier.Ciphertext{enc(int64(i)), enc(int64(2 * i))}}
	}
	if err != nil {
		return nil, err
	}
	return []protoBench{
		{name: "enccompare", run: func(ctx context.Context) error {
			_, err := protocols.EncCompareBatch(ctx, c, as, bs, magBits)
			return err
		}},
		{name: "secworst", run: func(ctx context.Context) error {
			_, err := protocols.SecWorstAll(ctx, c, depth)
			return err
		}},
		{name: "secbest", run: func(ctx context.Context) error {
			_, err := protocols.SecBestAll(ctx, c, depth, hist)
			return err
		}},
		{name: "secdedup", run: func(ctx context.Context) error {
			_, err := protocols.SecDedup(ctx, c, items, cloud.DedupReplace, protocols.AllPairs(len(items)), nil)
			return err
		}},
		{name: "secupdate", run: func(ctx context.Context) error {
			_, err := protocols.SecUpdate(ctx, c, tracked, gamma, cloud.DedupReplace)
			return err
		}},
		{name: "selecttop", run: func(ctx context.Context) error {
			_, err := protocols.EncSelectTop(ctx, c, items, protocols.ColWorst, true, 3, magBits)
			return err
		}},
		{name: "secfilter", timeOnly: true, run: func(ctx context.Context) error {
			_, err := protocols.SecFilter(ctx, c, tuples)
			return err
		}},
	}, nil
}

// ---------------------------------------------------------------------
// Kernels on fixed inputs.

// kernel is one arithmetic or crypto primitive. op runs it batch times;
// the reported value is elapsed/batch in unit.
type kernel struct {
	name  string
	unit  string // "ns" or "us"
	batch int
	op    func() error
	// before, when set, runs untimed ahead of every timed op.
	before func()
}

// repeat makes one timed op out of n calls: sub-microsecond primitives
// are timed many per sample so the clock read does not dominate.
func repeat(n int, op func() error) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	}
}

// randBits returns a fixed pseudo-random integer of exactly bits bits.
func randBits(rng *mrand.Rand, bits int) *big.Int {
	b := make([]byte, (bits+7)/8)
	rng.Read(b)
	v := new(big.Int).SetBytes(b)
	v.SetBit(v, bits-1, 1)
	return v
}

// newKernels builds the kernel rows. The 512-bit rows run on the N^2 of a
// fresh 256-bit Paillier key — the modulus the end-to-end workloads
// compute in — and the 4096-bit rows on a fixed odd modulus of the size a
// 2048-bit key has.
func newKernels() ([]kernel, func(), error) {
	keys, err := cloud.NewKeyMaterial(keyBits)
	if err != nil {
		return nil, nil, err
	}
	sk := keys.Paillier
	pk := &sk.PublicKey
	djpk := &keys.DJ.PublicKey
	rng := mrand.New(mrand.NewSource(4096))
	n2 := pk.EngineN2()
	big4096 := randBits(rng, 4096)
	big4096.SetBit(big4096, 0, 1)
	m4096, err := zmath.NewModulus(big4096)
	if err != nil {
		return nil, nil, err
	}
	operand := func(m *zmath.Modulus) *big.Int {
		return new(big.Int).Mod(randBits(rng, m.N().BitLen()+8), m.N())
	}
	x512, y512, e512 := operand(n2), operand(n2), operand(n2)
	x4096, y4096, e4096 := operand(m4096), operand(m4096), operand(m4096)
	var bases, exps []*big.Int
	for i := 0; i < 8; i++ {
		bases = append(bases, operand(n2))
		exps = append(exps, randBits(rng, keyBits))
	}
	var units []*big.Int
	for len(units) < 64 {
		u, err := zmath.RandUnit(rand.Reader, n2.N())
		if err != nil {
			return nil, nil, err
		}
		units = append(units, u)
	}
	msg := big.NewInt(123456)
	ctA, err := pk.Encrypt(msg)
	if err != nil {
		return nil, nil, err
	}
	ctB, err := pk.Encrypt(big.NewInt(654321))
	if err != nil {
		return nil, nil, err
	}
	konst := randBits(rng, 128)
	pool := paillier.NewNoncePool(pk, 1, 128)
	djCt, err := djpk.EncryptInner(ctA)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	hasher, err := ehl.NewHasher(prf.Key(bytes.Repeat([]byte{0x17}, prf.KeySize)), ehlParams(), pk)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	la, err := hasher.Build(7)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	lb, err := hasher.Build(8)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	prfKey := prf.Key(bytes.Repeat([]byte{0x2a}, prf.KeySize))
	var obj uint64

	// One timed op is poolBatch encryptions off a warm pool; the pool
	// refills, untimed, before each.
	const poolBatch = 64
	refill := func() { time.Sleep(40 * time.Millisecond) }
	const tiny = 256

	ks := []kernel{
		{name: "zmath.expmod_us.512", unit: "us", batch: 1, op: func() error { n2.ExpMod(x512, e512); return nil }},
		{name: "zmath.expmod_us.4096", unit: "us", batch: 1, op: func() error { m4096.ExpMod(x4096, e4096); return nil }},
		{name: "zmath.mulmod_ns.512", unit: "ns", batch: tiny, op: repeat(tiny, func() error { n2.MulMod(x512, y512); return nil })},
		{name: "zmath.mulmod_ns.4096", unit: "ns", batch: tiny, op: repeat(tiny, func() error { m4096.MulMod(x4096, y4096); return nil })},
		{name: "zmath.multiexp_us.512", unit: "us", batch: 1, op: func() error { _, err := n2.MultiExpMod(bases, exps); return err }},
		{name: "zmath.batchinv_us.512", unit: "us", batch: 1, op: func() error { _, err := zmath.BatchModInverseMod(units, n2); return err }},
		{name: "paillier.encrypt_us", unit: "us", batch: 1, op: func() error { _, err := pk.Encrypt(msg); return err }},
		{name: "paillier.pool_encrypt_us", unit: "us", batch: poolBatch, before: refill,
			op: repeat(poolBatch, func() error { _, err := pool.Encrypt(msg); return err })},
		{name: "paillier.decrypt_us", unit: "us", batch: 1, op: func() error { _, err := sk.Decrypt(ctA); return err }},
		{name: "paillier.mulconst_us", unit: "us", batch: 1, op: func() error { _, err := pk.MulConst(ctA, konst); return err }},
		{name: "paillier.add_ns", unit: "ns", batch: tiny, op: repeat(tiny, func() error { _, err := pk.Add(ctA, ctB); return err })},
		{name: "dj.encrypt_us", unit: "us", batch: 1, op: func() error { _, err := djpk.EncryptInner(ctA); return err }},
		{name: "dj.decrypt_us", unit: "us", batch: 1, op: func() error { _, err := keys.DJ.DecryptInner(djCt); return err }},
		{name: "dj.expcipher_us", unit: "us", batch: 1, op: func() error { _, err := djpk.ExpCipher(djCt, ctB); return err }},
		{name: "ehl.build_us", unit: "us", batch: 1, op: func() error { obj++; _, err := hasher.Build(obj); return err }},
		{name: "ehl.sub_us", unit: "us", batch: 1, op: func() error { _, err := ehl.Sub(pk, la, lb); return err }},
		{name: "prf.eval_ns", unit: "ns", batch: tiny, op: repeat(tiny, func() error { obj++; prf.EvalUint64(prfKey, obj); return nil })},
	}
	return ks, pool.Close, nil
}

// ---------------------------------------------------------------------
// Small outer layers.

// newAdmit returns an uncontended qos.Limiter.Admit call.
func newAdmit() func() error {
	lim := qos.NewLimiter(nil)
	ctx := context.Background()
	return func() error { return lim.Admit(ctx, "") }
}

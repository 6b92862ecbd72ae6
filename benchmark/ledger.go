package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/sectopk"
)

// ledger is one traced run: it fills the record with every per-layer
// metric. Each section gets a share of the run's seconds, so the whole
// run measures for about as long as an untraced one.
type ledger struct {
	ctx     context.Context
	spec    workloadSpec
	in      *inputs
	rec     *runRecord
	seconds int

	mu sync.Mutex // guards rec's counters: fleet sessions verify concurrently
}

// Shares of the run's seconds each section may spend. They leave about a
// tenth for the set-up inside the sections.
const (
	shareNested   = 0.30 // facade / engine nesting and the traced queries
	shareFleet    = 0.08 // each of mixed-fleet's two concurrent phases; comes out of shareNested
	shareKernels  = 0.10
	shareProtos   = 0.08
	shareShard    = 0.06
	shareKNN      = 0.04
	shareJoin     = 0.04
	shareMutation = 0.03
	shareCluster  = 0.10
	shareOuter    = 0.02
)

func (l *ledger) budget(share float64) time.Duration {
	return time.Duration(share * float64(l.seconds) * float64(time.Second))
}

// runTraced is the traced run of one workload. End-to-end metrics never
// come from here; the facade is measured again only to nest the layers
// around it and to state the tracing overhead.
func runTraced(ctx context.Context, bench *benchSpec, spec workloadSpec, seed int64, seconds int) (*runRecord, error) {
	l := &ledger{ctx: ctx, spec: spec, in: newInputs(seed), rec: newRecord(bench, spec, true, seed, seconds), seconds: seconds}
	// Per-layer numbers are reported as measured; the machine's speed over
	// the run is recorded beside them for whoever compares two runs.
	cal := newCalibrator()
	before := cal.read()
	defer func() {
		speed := meanReading(before, cal.read())
		l.rec.info("machine_speed", speed.wall(), "ratio", 0)
		l.rec.info("machine_speed_cpu", speed.cpu(), "ratio", 0)
	}()
	for _, section := range []struct {
		name string
		run  func() error
	}{
		{"workload layers", l.workloadLayers},
		{"kernels", l.kernels},
		{"sub-protocols", l.protocols},
		{"engines", l.engines},
		{"mutation", l.mutation},
		{"cluster", l.cluster},
		{"outer layers", l.outer},
	} {
		if err := section.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", section.name, err)
		}
	}
	l.rec.finish()
	return l.rec, nil
}

// checked counts one verified operation.
func (l *ledger) checked(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rec.Attempted++
	if err != nil {
		l.rec.fail(err)
	}
}

// timeOps runs op until budget is spent and at least min runs are in,
// returning each run's time in milliseconds.
func timeOps(ctx context.Context, budget time.Duration, min int, op func() error) ([]float64, error) {
	var ms []float64
	deadline := time.Now().Add(budget)
	for len(ms) < min || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := op(); err != nil {
			return nil, err
		}
		ms = append(ms, msSince(t0))
	}
	return ms, nil
}

// traced runs fn as one query under a root span.
func traced(ctx context.Context, tr *tracer, name string, fn func(context.Context) error) error {
	qctx, root := tr.begin(ctx, name)
	defer root.end()
	return fn(qctx)
}

// Root span names of the three request classes.
const (
	spanKNN  = "knn.query"
	spanJoin = "join.query"
)

// tracedPhase is one stretch of traced queries and what to hold them
// against.
type tracedPhase struct {
	since float64 // tracer clock when the phase began

	mu    sync.Mutex
	depth []float64
	// rounds and bytes are the S1-S2 wire traffic of the traced queries.
	rounds, bytes int64
	// facadeMs are untraced Client.Execute top-k latencies measured beside
	// the traced queries, under the same load.
	facadeMs []float64
}

// minNestedRounds is the least number of facade/engine rounds (and so of
// traced queries) a traced run makes.
const minNestedRounds = 2

// workloadLayers measures the layers on this workload's own request: the
// facade deployment of the untraced run, and beside it S1 and S2
// assembled by hand from the same pieces with the two timing wrappers
// interposed.
func (l *ledger) workloadLayers() error {
	dep, err := newDeployment(l.ctx, l.spec, l.in)
	if err != nil {
		return err
	}
	defer dep.close()
	if err := dep.warmup(l.ctx); err != nil {
		return err
	}
	tr := newTracer()
	hs, err := newTracedStack(l.ctx, tr, l.spec.wanDelay)
	if err != nil {
		return err
	}
	defer hs.close()
	hand, err := newHandTopK(l.ctx, hs, relTopK, l.in.topk.Rows, l.spec.shards, l.spec.k)
	if err != nil {
		return err
	}
	for i := 0; i < warmupPerClient; i++ {
		if _, _, err := hand.secQuery(l.ctx); err != nil {
			return fmt.Errorf("hand-assembled warm-up: %w", err)
		}
	}
	// Warm-up calls ran outside any query; only calls from here on must
	// pair up across the two seams.
	tr.unmatched.Store(0)

	phase, err := l.nestedRounds(dep, hs, tr, hand)
	if err != nil {
		return err
	}
	if l.spec.mixed {
		// The nesting ran one session at a time; the fleet's own layer
		// numbers come from every session running at once.
		if phase, err = l.fleetRounds(dep, hs, tr, hand); err != nil {
			return err
		}
	}
	l.layerMetrics(tr, phase)
	if n := tr.unmatched.Load(); n > 0 {
		l.checked(fmt.Errorf("%d S2 calls could not be matched to the S1 call that sent them", n))
	}

	rtts, err := timeOps(l.ctx, 0, 20, func() error { _, err := hs.rtt(l.ctx); return err })
	if err != nil {
		return err
	}
	l.rec.set("transport.rtt_us", median(rtts)*1000, len(rtts))
	depth, items, err := hand.secQuery(l.ctx)
	if err != nil {
		return err
	}
	codec, err := timeOps(l.ctx, 0, 50, func() error { return answerCodec(items, depth) })
	if err != nil {
		return err
	}
	l.rec.set("secio.answer_codec_us", median(codec)*1000, len(codec))
	return tr.write(fmt.Sprintf("out/trace-%s.json", l.spec.name))
}

// tracedTopK runs one traced top-k query on the hand-assembled engine and
// checks its answer.
func (l *ledger) tracedTopK(tr *tracer, hand *handTopK, phase *tracedPhase) {
	l.checked(traced(l.ctx, tr, spanRoot, func(ctx context.Context) error {
		depth, items, err := hand.secQuery(ctx)
		if err != nil {
			return err
		}
		phase.mu.Lock()
		phase.depth = append(phase.depth, float64(depth))
		phase.mu.Unlock()
		return hand.check(items)
	}))
}

// nestedRounds sends the same top-k request three ways per round —
// Client.Execute over the wire (A), DataCloud.Execute in process (B), the
// engine's SecQuery on the hand-assembled stack under trace (C) — one at
// a time, so the three medians see the same machine. A-B is the client
// wire, B-C the facade. On mutate-beside-read the open-loop writer runs
// beside the rounds, against the facade deployment.
func (l *ledger) nestedRounds(dep *deployment, hs *handStack, tr *tracer, hand *handTopK) (*tracedPhase, error) {
	phase := &tracedPhase{since: tr.now()}
	var (
		bMs, wireBytes []float64
		samples        []readSample
		wres           windowResult
		writer         sync.WaitGroup
	)
	share := shareNested
	if l.spec.mixed {
		share -= 2 * shareFleet
	}
	start := time.Now()
	deadline := start.Add(l.budget(share))
	if l.spec.mutate {
		writer.Add(1)
		go func() {
			defer writer.Done()
			dep.runWriter(l.ctx, start, deadline, &wres)
		}()
	}
	req := dep.requests[0]
	for round := 0; round < minNestedRounds || time.Now().Before(deadline); round++ {
		a := dep.issue(l.ctx, dep.readers[0], req)
		samples = append(samples, a)
		if a.err == nil {
			phase.facadeMs = append(phase.facadeMs, a.ms)
			wireBytes = append(wireBytes, float64(a.ans.Traffic.Bytes))
		}

		rctx, cancel := context.WithTimeout(l.ctx, requestTimeout)
		t0 := time.Now()
		ans, err := dep.dc.Execute(rctx, req.req)
		b := readSample{class: req.class, ms: msSince(t0), ans: ans, err: err}
		cancel()
		samples = append(samples, b)
		if err == nil {
			bMs = append(bMs, b.ms)
		}

		r0, b0 := hs.wire()
		l.tracedTopK(tr, hand, phase)
		r1, b1 := hs.wire()
		phase.rounds += r1 - r0
		phase.bytes += b1 - b0
	}
	writer.Wait()
	for _, s := range samples {
		l.checked(dep.verify(s, wres.epochRows))
	}
	var late []float64
	for _, w := range wres.writes {
		l.checked(w.err)
		late = append(late, w.lateMs)
	}
	if len(phase.facadeMs) == 0 || len(bMs) == 0 {
		return nil, errors.New("no facade request succeeded")
	}
	var cMs []float64
	for _, q := range tr.summaries(phase.since) {
		cMs = append(cMs, q.wallMs)
	}
	l.rec.set("sectopk.client_wire_ms", median(phase.facadeMs)-median(bMs), len(bMs))
	l.rec.set("sectopk.client_wire_bytes", median(wireBytes), len(wireBytes))
	l.rec.set("sectopk.facade_ms", median(bMs)-median(cMs), len(bMs))
	// 0 on every workload but mutate-beside-read, which alone has a writer.
	l.rec.set("loadgen.writer_late_p50_ms", median(late), len(late))
	return phase, nil
}

// fleetRounds is mixed-fleet's own load in the traced run, twice: every
// reader cycling top-k, kNN, join through the facade untraced, then as
// many sessions doing the same on the hand-assembled stack under trace,
// sharing its one batcher and link.
func (l *ledger) fleetRounds(dep *deployment, hs *handStack, tr *tracer, hand *handTopK) (*tracedPhase, error) {
	hk, err := newHandKNN(l.ctx, hs, relKNN, hand.scheme.KeyMaterial(), l.in.knn.Rows, l.in.knnQuery.Point, l.in.knnQuery.K)
	if err != nil {
		return nil, err
	}
	hj, err := newHandJoin(l.ctx, hs, relJoin, l.in)
	if err != nil {
		return nil, err
	}
	if _, err := hk.query(l.ctx); err != nil {
		return nil, fmt.Errorf("hand-assembled kNN warm-up: %w", err)
	}
	if _, err := hj.query(l.ctx); err != nil {
		return nil, fmt.Errorf("hand-assembled join warm-up: %w", err)
	}
	tr.unmatched.Store(0)

	logs := make([]readerLog, len(dep.readers))
	deadline := time.Now().Add(l.budget(shareFleet))
	var wg sync.WaitGroup
	for i, c := range dep.readers {
		wg.Add(1)
		go func(i int, c *sectopk.Client) {
			defer wg.Done()
			dep.runReader(l.ctx, c, deadline, &logs[i])
		}(i, c)
	}
	wg.Wait()
	phase := &tracedPhase{}
	for _, log := range logs {
		for _, s := range log.samples {
			err := dep.verify(s, nil)
			l.checked(err)
			if err == nil && s.class == classTopK {
				phase.facadeMs = append(phase.facadeMs, s.ms)
			}
		}
	}
	if len(phase.facadeMs) == 0 {
		return nil, errors.New("no facade top-k request succeeded under the fleet's load")
	}

	phase.since = tr.now()
	r0, b0 := hs.wire()
	deadline = time.Now().Add(l.budget(shareFleet))
	for range dep.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
				l.tracedTopK(tr, hand, phase)
				l.checked(traced(l.ctx, tr, spanKNN, func(ctx context.Context) error { _, err := hk.query(ctx); return err }))
				l.checked(traced(l.ctx, tr, spanJoin, func(ctx context.Context) error { _, err := hj.query(ctx); return err }))
			}
		}()
	}
	wg.Wait()
	r1, b1 := hs.wire()
	phase.rounds, phase.bytes = r1-r0, b1-b0
	return phase, nil
}

// layerMetrics turns a phase's spans into the core.*, cloud.*,
// transport.* and trace.* rows. Times of one query's layers are medians
// over the top-k queries; S2 and wire busy time and every count are totals
// over all traced requests divided by their number (on the solo
// workloads, where every request is the same top-k query, the two agree).
func (l *ledger) layerMetrics(tr *tracer, phase *tracedPhase) {
	sums := tr.summaries(phase.since)
	var wall, self, parts []float64
	var s2Ms, wireMs float64
	calls := 0
	callsBy := map[string]int{}
	s2MsBy := map[string]float64{}
	for _, q := range sums {
		if q.name == spanRoot {
			wall = append(wall, q.wallMs)
			self = append(self, q.selfMs)
			parts = append(parts, (q.selfMs+q.s2Ms+q.wireMs)/q.wallMs)
		}
		s2Ms += q.s2Ms
		wireMs += q.wireMs
		for m, n := range q.calls {
			calls += n
			callsBy[m] += n
		}
		for m, ms := range q.s2MsByMethod {
			s2MsBy[m] += ms
		}
	}
	ops := float64(len(sums))
	if ops == 0 || len(wall) == 0 {
		return // finish() reports the missing rows
	}
	depth := median(phase.depth)
	l.rec.set("core.query_ms", median(wall), len(wall))
	l.rec.set("core.depth", depth, len(phase.depth))
	l.rec.set("core.ms_per_depth", median(wall)/depth, len(wall))
	l.rec.set("core.self_ms", median(self), len(self))
	l.rec.set("cloud.s2_compute_ms", s2Ms/ops, len(sums))
	l.rec.set("cloud.s2_calls", float64(calls)/ops, len(sums))
	for _, m := range s2Methods {
		l.rec.set("cloud.s2_ms."+m, s2MsBy[m]/ops, len(sums))
		l.rec.set("cloud.s2_calls."+m, float64(callsBy[m])/ops, len(sums))
	}
	l.rec.set("cloud.batch_fill", float64(calls)/float64(phase.rounds), len(sums))
	l.rec.set("transport.wire_ms", wireMs/ops, len(sums))
	l.rec.set("transport.rounds", float64(phase.rounds)/ops, len(sums))
	l.rec.set("transport.bytes", float64(phase.bytes)/ops, len(sums))
	l.rec.set("trace.overhead_ratio", median(wall)/median(phase.facadeMs), len(wall))
	l.rec.set("trace.sum_ratio", median(parts), len(parts))
}

// kernels times the arithmetic and crypto primitives on fixed inputs.
func (l *ledger) kernels() error {
	ks, cleanup, err := newKernels()
	if err != nil {
		return err
	}
	defer cleanup()
	each := l.budget(shareKernels) / time.Duration(len(ks))
	for _, k := range ks {
		var per []float64
		deadline := time.Now().Add(each)
		for len(per) < 5 || time.Now().Before(deadline) {
			if k.before != nil {
				k.before()
			}
			t0 := time.Now()
			if err := k.op(); err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
			ns := float64(time.Since(t0)) / float64(k.batch)
			if k.unit == "us" {
				ns /= 1000
			}
			per = append(per, ns)
		}
		l.rec.set(k.name, median(per), len(per)*k.batch)
	}
	return nil
}

// protocols times each sub-protocol on its fixed input through
// cloud.Client -> transport.NewLocal -> cloud.Service, and reads the S2
// calls and bytes one run costs off the transport counters.
func (l *ledger) protocols() error {
	hs := newLocalStack()
	defer hs.close()
	benches, err := newProtoBenches(l.ctx, hs)
	if err != nil {
		return err
	}
	each := l.budget(shareProtos) / time.Duration(len(benches))
	for _, b := range benches {
		r0, b0 := hs.wire()
		ms, err := timeOps(l.ctx, each, 3, func() error { return b.run(l.ctx) })
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		r1, b1 := hs.wire()
		runs := float64(len(ms))
		l.rec.set("protocols."+b.name+"_ms", median(ms), len(ms))
		if !b.timeOnly {
			l.rec.set("protocols."+b.name+"_calls", float64(r1-r0)/runs, len(ms))
			l.rec.set("protocols."+b.name+"_bytes", float64(b1-b0)/runs, len(ms))
		}
	}
	return nil
}

// engines times the engines no solo workload reaches, in process on
// mixed-fleet's inputs: the two halves of a sharded top-k query, kNN and
// the top-k join.
func (l *ledger) engines() error {
	hs := newLocalStack()
	defer hs.close()
	fleet, _ := findWorkload("mixed-fleet")
	hand, err := newHandTopK(l.ctx, hs, relTopK, l.in.topk.Rows, fleet.shards, fleet.k)
	if err != nil {
		return err
	}
	var candMs, mergeMs []float64
	fallbacks := 0
	if _, err := timeOps(l.ctx, l.budget(shareShard), 2, func() error {
		c, m, certified, err := hand.candidatesAndMerge(l.ctx)
		l.checked(err)
		candMs, mergeMs = append(candMs, c), append(mergeMs, m)
		if !certified {
			fallbacks++
		}
		return nil
	}); err != nil {
		return err
	}
	l.rec.set("shard.candidates_ms", median(candMs), len(candMs))
	l.rec.set("shard.merge_ms", median(mergeMs), len(mergeMs))
	l.rec.set("shard.merge_fallbacks", float64(fallbacks), len(mergeMs))

	hk, err := newHandKNN(l.ctx, hs, relKNN, hand.scheme.KeyMaterial(), l.in.knn.Rows, l.in.knnQuery.Point, l.in.knnQuery.K)
	if err != nil {
		return err
	}
	var knnMs []float64
	if _, err := timeOps(l.ctx, l.budget(shareKNN), 2, func() error {
		ms, err := hk.query(l.ctx)
		l.checked(err)
		knnMs = append(knnMs, ms)
		return nil
	}); err != nil {
		return err
	}
	l.rec.set("knn.query_ms", median(knnMs), len(knnMs))

	hj, err := newHandJoin(l.ctx, hs, relJoin, l.in)
	if err != nil {
		return err
	}
	var joinMs []float64
	if _, err := timeOps(l.ctx, l.budget(shareJoin), 2, func() error {
		ms, err := hj.query(l.ctx)
		l.checked(err)
		joinMs = append(joinMs, ms)
		return nil
	}); err != nil {
		return err
	}
	l.rec.set("join.query_ms", median(joinMs), len(joinMs))
	return nil
}

// localFacade is an owner, S2 and S1 wired in process through the public
// API, hosting the top-k relation encrypted into the given shards.
type localFacade struct {
	owner *sectopk.Owner
	er    *sectopk.EncryptedRelation
	cc    *sectopk.CryptoCloud
	dc    *sectopk.DataCloud
}

func newLocalFacade(ctx context.Context, rel *sectopk.Relation, shards int, dcOpts ...sectopk.Option) (*localFacade, error) {
	owner, err := sectopk.NewOwner(facadeOptions(sectopk.WithShards(shards))...)
	if err != nil {
		return nil, err
	}
	er, err := owner.Encrypt(rel)
	if err != nil {
		return nil, err
	}
	f := &localFacade{owner: owner, er: er, cc: sectopk.NewCryptoCloud(facadeOptions()...)}
	if err := f.cc.Register(relTopK, owner.Keys()); err != nil {
		f.close()
		return nil, err
	}
	f.dc = sectopk.NewDataCloud(facadeOptions(dcOpts...)...)
	if err := f.dc.ConnectLocal(ctx, f.cc); err != nil {
		f.close()
		return nil, err
	}
	if err := f.dc.Host(ctx, relTopK, er); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *localFacade) close() {
	if f.dc != nil {
		f.dc.Close()
	}
	f.cc.Close()
}

// mutation times the write path where it is implemented:
// MutableRelation.UpdateScores (the owner builds and encrypts the delta),
// DataCloud.Apply and DataCloud.Compact, with the same row swaps the
// mutate-beside-read writer makes. One query at the end checks the hosted
// relation against the mutated plaintext.
func (l *ledger) mutation() error {
	f, err := newLocalFacade(l.ctx, l.in.topk, 1)
	if err != nil {
		return err
	}
	defer f.close()
	mr, err := f.owner.NewMutable(l.in.topk, f.er)
	if err != nil {
		return err
	}
	rows := cloneRows(l.in.topk.Rows)
	var buildMs, applyMs, compactMs []float64
	i := 0
	if _, err := timeOps(l.ctx, l.budget(shareMutation), 8, func() error {
		a, b := l.in.nextSwap(i, rows)
		rows[a], rows[b] = rows[b], rows[a]
		t0 := time.Now()
		delta, err := mr.UpdateScores(map[int][]int64{a: rows[a], b: rows[b]})
		if err != nil {
			return err
		}
		buildMs = append(buildMs, msSince(t0))
		t1 := time.Now()
		epoch, err := f.dc.Apply(l.ctx, relTopK, delta)
		if err != nil {
			return err
		}
		applyMs = append(applyMs, msSince(t1))
		if err := mr.Adopt(epoch); err != nil {
			return err
		}
		if i++; i%4 == 0 {
			t2 := time.Now()
			if epoch, err = f.dc.Compact(l.ctx, relTopK); err != nil {
				return err
			}
			compactMs = append(compactMs, msSince(t2))
			return mr.Adopt(epoch)
		}
		return nil
	}); err != nil {
		return err
	}
	l.rec.set("mutate.delta_build_ms", median(buildMs), len(buildMs))
	l.rec.set("mutate.apply_ms", median(applyMs), len(applyMs))
	l.rec.set("mutate.compact_ms", median(compactMs), len(compactMs))

	q := topkQuery(2)
	tk, err := mr.Token(q)
	if err != nil {
		return err
	}
	ans, err := f.dc.Execute(l.ctx, sectopk.TopKRequest(relTopK, tk))
	if err != nil {
		return err
	}
	got, err := f.owner.Reveal(f.er, ans.TopK)
	if err != nil {
		return err
	}
	l.checked(checkTopK(got, rows, q))
	return nil
}

// cluster states what a front door costs: the same sharded relation and
// query answered by a two-member in-process cluster and by one node. It
// gets a per-layer number but no workload — one process on a few cores
// cannot show what a cluster is for.
func (l *ledger) cluster() error {
	fleet, _ := findWorkload("mixed-fleet")
	single, err := newLocalFacade(l.ctx, l.in.topk, fleet.shards)
	if err != nil {
		return err
	}
	defer single.close()
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	var addrs []string
	for i := 0; i < fleet.shards; i++ {
		member := sectopk.NewDataCloud(facadeOptions(sectopk.WithMemberID(fmt.Sprintf("m%d", i)))...)
		stops = append(stops, member.Close)
		if err := member.ConnectLocal(l.ctx, single.cc); err != nil {
			return err
		}
		sub, err := single.er.Subset(i)
		if err != nil {
			return err
		}
		if err := member.HostShards(l.ctx, relTopK, sub); err != nil {
			return err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		sctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = member.ServeCluster(sctx, lis) // returns when cancel closes the listener
		}()
		stops = append(stops, func() { cancel(); <-done })
		addrs = append(addrs, lis.Addr().String())
	}
	front := sectopk.NewDataCloud(facadeOptions()...)
	stops = append(stops, front.Close)
	if err := front.ConnectLocal(l.ctx, single.cc); err != nil {
		return err
	}
	if err := front.HostCluster(l.ctx, addrs); err != nil {
		return err
	}
	q := topkQuery(fleet.k)
	tk, err := single.owner.Token(single.er, q)
	if err != nil {
		return err
	}
	req := sectopk.TopKRequest(relTopK, tk)
	run := func(dc *sectopk.DataCloud, ms *[]float64) error {
		t0 := time.Now()
		ans, err := dc.Execute(l.ctx, req)
		if err != nil {
			return err
		}
		*ms = append(*ms, msSince(t0))
		got, err := single.owner.Reveal(single.er, ans.TopK)
		if err != nil {
			return err
		}
		l.checked(checkTopK(got, l.in.topk.Rows, q))
		return nil
	}
	var frontMs, singleMs []float64
	if _, err := timeOps(l.ctx, l.budget(shareCluster), 2, func() error {
		if err := run(front, &frontMs); err != nil {
			return err
		}
		return run(single.dc, &singleMs)
	}); err != nil {
		return err
	}
	l.rec.set("cluster.frontdoor_ms", median(frontMs)-median(singleMs), len(frontMs))
	return nil
}

// outer times the two thinnest layers where they can be resolved: an
// uncontended Limiter.Admit, and what a trace sink adds to
// DataCloud.Execute. The sink's cost is far below the noise of a whole
// query, so it is measured on a request that is refused at once (an
// unknown relation): Execute still admits it, brackets it and emits its
// span, with and without a sink.
func (l *ledger) outer() error {
	const batch = 1024
	admit := newAdmit()
	ms, err := timeOps(l.ctx, l.budget(shareOuter)/3, 5, repeat(batch, admit))
	if err != nil {
		return err
	}
	l.rec.set("qos.admit_ns", median(ms)*1e6/batch, len(ms)*batch)

	owner, err := sectopk.NewOwner(facadeOptions()...)
	if err != nil {
		return err
	}
	er, err := owner.Encrypt(&sectopk.Relation{Name: "tiny", Rows: l.in.topk.Rows[:4]})
	if err != nil {
		return err
	}
	tk, err := owner.Token(er, topkQuery(1))
	if err != nil {
		return err
	}
	req := sectopk.TopKRequest("not-hosted", tk)
	spans := 0
	plain := sectopk.NewDataCloud(facadeOptions()...)
	defer plain.Close()
	sunk := sectopk.NewDataCloud(facadeOptions(sectopk.WithTraceSink(sectopk.TraceSinkFunc(func(sectopk.QuerySpan) { spans++ })))...)
	defer sunk.Close()
	refused := func(dc *sectopk.DataCloud) func() error {
		return repeat(batch, func() error {
			if _, err := dc.Execute(l.ctx, req); !errors.Is(err, sectopk.ErrUnknownRelation) {
				return fmt.Errorf("refused request returned %v, want unknown relation", err)
			}
			return nil
		})
	}
	var plainMs, sunkMs []float64
	if _, err := timeOps(l.ctx, l.budget(shareOuter)*2/3, 5, func() error {
		t0 := time.Now()
		if err := refused(plain)(); err != nil {
			return err
		}
		plainMs = append(plainMs, msSince(t0))
		t1 := time.Now()
		if err := refused(sunk)(); err != nil {
			return err
		}
		sunkMs = append(sunkMs, msSince(t1))
		return nil
	}); err != nil {
		return err
	}
	if spans != len(sunkMs)*batch {
		l.checked(fmt.Errorf("trace sink saw %d spans for %d requests", spans, len(sunkMs)*batch))
	}
	l.rec.set("telemetry.sink_overhead_us", (median(sunkMs)-median(plainMs))*1000/batch, len(sunkMs)*batch)
	return nil
}

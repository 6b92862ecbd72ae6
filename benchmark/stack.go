package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/sectopk"
)

// workloadSpec fixes one workload's shape. Names are part of the
// benchmark's contract: later issues cite them.
type workloadSpec struct {
	name string
	// clients is the number of closed-loop querier connections; 0 means
	// GOMAXPROCS.
	clients int
	// shards is the owner's WithShards for the top-k relation.
	shards int
	// k is the top-k query's k.
	k int
	// wanDelay, when positive, routes the S1-S2 link through the delay
	// proxy with this one-way delay.
	wanDelay time.Duration
	// mixed makes every client cycle top-k, kNN, join in that order.
	mixed bool
	// mutate adds the open-loop writer beside the single reader.
	mutate bool
}

// wanOneWay is topk-wan's injected delay in each direction.
const wanOneWay = 1500 * time.Microsecond

var workloads = []workloadSpec{
	{name: "topk-shallow", clients: 1, shards: 1, k: 2},
	{name: "topk-wan", clients: 1, shards: 1, k: 2, wanDelay: wanOneWay},
	{name: "mixed-fleet", clients: 0, shards: 2, k: 2, mixed: true},
	{name: "mutate-beside-read", clients: 1, shards: 1, k: 2, mutate: true},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (w workloadSpec) readers() int {
	if w.clients > 0 {
		return w.clients
	}
	return runtime.GOMAXPROCS(0)
}

// Relation ids the deployment hosts.
const (
	relTopK = "topk"
	relKNN  = "knn"
	relJoin = "join"
)

// facadeOptions is what a user of the facade passes with no tuning beyond
// key size: default mode, halting, nonce pools and batching.
func facadeOptions(extra ...sectopk.Option) []sectopk.Option {
	return append([]sectopk.Option{
		sectopk.WithKeyBits(keyBits),
		sectopk.WithEHLDigests(ehlDigests),
		sectopk.WithMaxScoreBits(maxScoreBits),
	}, extra...)
}

// deployment is all four parties in one process: owner(s), the crypto
// cloud S2 on a loopback TCP listener, the data cloud S1 dialing it
// (through the delay proxy on topk-wan) and serving the client wire on a
// second listener, and the querier connections.
type deployment struct {
	spec workloadSpec
	in   *inputs

	owner   *sectopk.Owner
	jowner  *sectopk.JoinOwner
	er      *sectopk.EncryptedRelation
	ker     *sectopk.EncryptedKNNRelation
	mutable *sectopk.MutableRelation

	cc    *sectopk.CryptoCloud
	dc    *sectopk.DataCloud
	proxy *delayProxy

	clientAddr string
	readers    []*sectopk.Client
	writer     *sectopk.Client

	query    sectopk.Query
	requests []classRequest // one per class, in cycle order

	stopS1, stopS2 context.CancelFunc
	serving        sync.WaitGroup
}

// classRequest is one request class a reader issues.
type classRequest struct {
	class string
	req   sectopk.Request
}

// newDeployment performs the whole set-up a user pays before the first
// request: key generation, encryption, registration, listeners, dials
// and hosting. It is what setup_s times.
func newDeployment(ctx context.Context, spec workloadSpec, in *inputs) (d *deployment, err error) {
	d = &deployment{spec: spec, in: in, query: topkQuery(spec.k)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.owner, err = sectopk.NewOwner(facadeOptions(sectopk.WithShards(spec.shards))...); err != nil {
		return nil, fmt.Errorf("owner: %w", err)
	}
	if d.er, err = d.owner.Encrypt(in.topk); err != nil {
		return nil, fmt.Errorf("encrypt top-k relation: %w", err)
	}
	d.cc = sectopk.NewCryptoCloud(facadeOptions()...)
	if err = d.cc.Register(relTopK, d.owner.Keys()); err != nil {
		return nil, err
	}
	var jr1, jr2 *sectopk.EncryptedJoinRelation
	if spec.mixed {
		if d.ker, err = d.owner.EncryptKNN(in.knn); err != nil {
			return nil, fmt.Errorf("encrypt kNN relation: %w", err)
		}
		if d.jowner, err = sectopk.NewJoinOwner(facadeOptions()...); err != nil {
			return nil, fmt.Errorf("join owner: %w", err)
		}
		if jr1, err = d.jowner.Encrypt(in.join1); err != nil {
			return nil, fmt.Errorf("encrypt join relation 1: %w", err)
		}
		if jr2, err = d.jowner.Encrypt(in.join2); err != nil {
			return nil, fmt.Errorf("encrypt join relation 2: %w", err)
		}
		if err = d.cc.Register(relKNN, d.owner.Keys()); err != nil {
			return nil, err
		}
		if err = d.cc.Register(relJoin, d.jowner.Keys()); err != nil {
			return nil, err
		}
	}
	if spec.mutate {
		if d.mutable, err = d.owner.NewMutable(in.topk, d.er); err != nil {
			return nil, fmt.Errorf("open mutable relation: %w", err)
		}
	}

	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var s2ctx context.Context
	s2ctx, d.stopS2 = context.WithCancel(context.Background())
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = d.cc.Serve(s2ctx, l2) // returns when stopS2 closes the listener
	}()
	s2addr := l2.Addr().String()
	if spec.wanDelay > 0 {
		if d.proxy, err = newDelayProxy(s2addr, spec.wanDelay); err != nil {
			return nil, err
		}
		s2addr = d.proxy.Addr()
	}

	d.dc = sectopk.NewDataCloud(facadeOptions()...)
	if err = d.dc.Dial(ctx, s2addr); err != nil {
		return nil, fmt.Errorf("S1 dialing S2: %w", err)
	}
	if err = d.dc.Host(ctx, relTopK, d.er); err != nil {
		return nil, fmt.Errorf("host top-k relation: %w", err)
	}
	if spec.mixed {
		if err = d.dc.HostKNN(ctx, relKNN, d.ker); err != nil {
			return nil, fmt.Errorf("host kNN relation: %w", err)
		}
		if err = d.dc.HostJoin(ctx, relJoin, jr1, jr2); err != nil {
			return nil, fmt.Errorf("host join relations: %w", err)
		}
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var s1ctx context.Context
	s1ctx, d.stopS1 = context.WithCancel(context.Background())
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = d.dc.ServeClients(s1ctx, l1) // returns when stopS1 closes the listener
	}()
	d.clientAddr = l1.Addr().String()

	for i := 0; i < spec.readers(); i++ {
		c, err := sectopk.Dial(ctx, d.clientAddr)
		if err != nil {
			return nil, fmt.Errorf("client %d dialing S1: %w", i, err)
		}
		d.readers = append(d.readers, c)
	}
	if spec.mutate {
		if d.writer, err = sectopk.Dial(ctx, d.clientAddr); err != nil {
			return nil, fmt.Errorf("writer dialing S1: %w", err)
		}
	}

	tk, err := d.owner.Token(d.er, d.query)
	if err != nil {
		return nil, err
	}
	d.requests = []classRequest{{classTopK, sectopk.TopKRequest(relTopK, tk)}}
	if spec.mixed {
		ktk, err := d.owner.KNNToken(d.ker, in.knnQuery)
		if err != nil {
			return nil, err
		}
		jtk, err := d.jowner.Token(jr1, jr2, in.joinQuery)
		if err != nil {
			return nil, err
		}
		d.requests = append(d.requests,
			classRequest{classKNN, sectopk.KNNRequest(relKNN, ktk)},
			classRequest{classJoin, sectopk.JoinRequest(relJoin, jtk)})
	}
	return d, nil
}

// close tears every party down and waits for the serving loops to exit.
// Safe on a partially built deployment.
func (d *deployment) close() {
	for _, c := range d.readers {
		c.Close()
	}
	if d.writer != nil {
		d.writer.Close()
	}
	if d.stopS1 != nil {
		d.stopS1()
	}
	if d.dc != nil {
		d.dc.Close()
	}
	if d.stopS2 != nil {
		d.stopS2()
	}
	if d.cc != nil {
		d.cc.Close()
	}
	if d.proxy != nil {
		d.proxy.Close()
	}
	d.serving.Wait()
}

// erBytesPerRow is the storage and upload cost of the top-k relation.
func (d *deployment) erBytesPerRow() float64 {
	return float64(d.er.ByteSize()) / float64(d.er.Rows())
}

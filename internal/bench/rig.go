package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/transport"
)

// Rig wires one data owner, data cloud S1 and crypto cloud S2 over the
// in-process transport with byte accounting.
type Rig struct {
	Cfg    Config
	Scheme *core.Scheme
	Server *cloud.Server
	Client *cloud.Client
	Stats  *transport.Stats

	// encrypted relation cache keyed by name/shape, so sweeps over k do
	// not re-encrypt.
	erCache map[string]*core.EncryptedRelation
}

// NewRig builds the two-cloud test bed.
func NewRig(cfg Config) (*Rig, error) {
	params := core.Params{
		KeyBits:      cfg.KeyBits,
		EHL:          ehl.DefaultPlusParams(),
		MaxScoreBits: cfg.MaxScoreBits,
	}
	scheme, err := core.NewScheme(params)
	if err != nil {
		return nil, fmt.Errorf("bench: scheme: %w", err)
	}
	// No figure reads leakage, so neither party keeps a ledger.
	server, err := cloud.NewServer(scheme.KeyMaterial(), nil)
	if err != nil {
		return nil, fmt.Errorf("bench: server: %w", err)
	}
	stats := transport.NewStats()
	client, err := cloud.NewClient(transport.NewLocal(server, stats), scheme.PublicKey(), nil)
	if err != nil {
		server.Close()
		return nil, fmt.Errorf("bench: client: %w", err)
	}
	return &Rig{
		Cfg: cfg, Scheme: scheme, Server: server, Client: client,
		Stats:   stats,
		erCache: map[string]*core.EncryptedRelation{},
	}, nil
}

// Close releases the rig's background nonce pools.
func (r *Rig) Close() {
	r.Client.Close()
	r.Server.Close()
}

// scaledSpec applies the run's row scaling to a dataset spec.
func (r *Rig) scaledSpec(spec dataset.Spec) dataset.Spec {
	rows := r.Cfg.Rows
	if rows <= 0 {
		rows = DefaultConfig().Rows
	}
	if rows < spec.N {
		spec = spec.WithN(rows)
	}
	return spec
}

// relation generates (deterministically) the scaled dataset.
func (r *Rig) relation(spec dataset.Spec) (*dataset.Relation, error) {
	return dataset.Generate(r.scaledSpec(spec), r.Cfg.Seed)
}

// encrypted returns the encrypted relation for the scaled spec, cached.
func (r *Rig) encrypted(spec dataset.Spec) (*core.EncryptedRelation, *dataset.Relation, error) {
	s := r.scaledSpec(spec)
	key := fmt.Sprintf("%s/%dx%d", s.Name, s.N, s.M)
	rel, err := dataset.Generate(s, r.Cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if er, ok := r.erCache[key]; ok {
		return er, rel, nil
	}
	er, err := r.Scheme.EncryptRelation(rel)
	if err != nil {
		return nil, nil, err
	}
	r.erCache[key] = er
	return er, rel, nil
}

// queryMeasurement captures one timed SecQuery run.
type queryMeasurement struct {
	elapsed      time.Duration
	depth        int
	halted       bool
	timePerDepth time.Duration
	bytes        int64
	bytesPerDep  int64
	rounds       int64
}

// timeQuery runs one SecQuery with fresh traffic counters and reports the
// paper's metrics: average time per depth (Section 11.2.1's T/D) and the
// exchanged bytes.
func (r *Rig) timeQuery(er *core.EncryptedRelation, attrs []int, k int, opts core.Options) (*queryMeasurement, error) {
	tk, err := r.Scheme.Token(er, attrs, nil, k)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(r.Client, er)
	if err != nil {
		return nil, err
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = r.Cfg.MaxDepth
	}
	r.Stats.Reset()
	start := time.Now()
	res, err := engine.SecQuery(context.Background(), tk, opts)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	depth := res.Depth
	if depth == 0 {
		depth = 1
	}
	total := r.Stats.Bytes()
	return &queryMeasurement{
		elapsed:      elapsed,
		depth:        res.Depth,
		halted:       res.Halted,
		timePerDepth: elapsed / time.Duration(depth),
		bytes:        total,
		bytesPerDep:  total / int64(depth),
		rounds:       r.Stats.Rounds(),
	}, nil
}

// firstAttrs returns [0, 1, .., m).
func firstAttrs(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

package sectopk

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/secerr"
	"repro/internal/secio"
	"repro/internal/transport"
)

// decoder is one byte stream the system reads from a file or a peer other
// than S2: a secio kind, or a client- or cluster-plane frame. Every one is
// decoded by internal/wire, and this table is what FuzzDecode drives.
type decoder struct {
	name   string
	decode func([]byte) error
	// prefix is the valid fields before the decoder's first count, where
	// the hostile-count seed puts its 2⁴⁰.
	prefix []byte
}

// kindReaders reads each secio kind.
var kindReaders = map[string]func(io.Reader) error{
	"token":      func(r io.Reader) error { _, err := secio.ReadToken(r); return err },
	"join-token": func(r io.Reader) error { _, err := secio.ReadJoinToken(r); return err },
	"knn-token":  func(r io.Reader) error { _, _, err := secio.ReadKNNToken(r); return err },
	"result": func(r io.Reader) error {
		_, _, _, err := secio.ReadQueryResult(r)
		return err
	},
	"join-result": func(r io.Reader) error { _, err := secio.ReadJoinResult(r); return err },
	"knn-result":  func(r io.Reader) error { _, err := secio.ReadKNNResult(r); return err },
	"candidates":  func(r io.Reader) error { _, err := secio.ReadCandidates(r); return err },
	"keys":        func(r io.Reader) error { _, err := secio.ReadKeyMaterial(r); return err },
	"owner":       func(r io.Reader) error { _, err := secio.ReadOwnerBundle(r); return err },
	"join-owner":  func(r io.Reader) error { _, err := secio.ReadJoinOwnerBundle(r); return err },
	"hosted-join-relation": func(r io.Reader) error {
		_, _, _, _, err := secio.ReadHostedJoinRelation(r)
		return err
	},
	"hosted-knn-relation": func(r io.Reader) error {
		_, _, _, err := secio.ReadHostedKNNRelation(r)
		return err
	},
	"hosted-subset": func(r io.Reader) error {
		_, _, _, _, _, err := secio.ReadHostedSubset(r)
		return err
	},
	"hosted-mutable": func(r io.Reader) error { _, _, err := secio.ReadMutableHosted(r); return err },
	"mutable-owner": func(r io.Reader) error {
		_, _, _, err := secio.ReadOwnerMutable(r)
		return err
	},
	"delta": func(r io.Reader) error { _, _, err := secio.ReadDelta(r); return err },
}

// frame decodes one frame type and then applies its receiver's check, if
// it has one.
func frame[T any, P interface {
	*T
	encoding.BinaryUnmarshaler
}](check func(*T) error) func([]byte) error {
	return func(b []byte) error {
		var m T
		if err := transport.Decode(b, P(&m)); err != nil || check == nil {
			return err
		}
		return check(&m)
	}
}

func uvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// kindHeader is a secio stream's header at the given version.
func kindHeader(kind string, version uint64) []byte {
	b := append(uvarint(10), "sectopk-er"...)
	b = append(b, uvarint(version)...)
	return append(append(b, uvarint(uint64(len(kind)))...), kind...)
}

// scalarsFirst counts the one-byte scalar fields a kind has before its
// first count.
var scalarsFirst = map[string]int{"token": 1, "join-token": 5, "result": 3, "knn-result": 1, "candidates": 2, "delta": 1}

func decoders() []decoder {
	var out []decoder
	for _, kind := range secio.Kinds() {
		read := kindReaders[kind]
		if read == nil {
			read = func(io.Reader) error { return errors.New("no reader in the decoder table") }
		}
		out = append(out, decoder{
			name:   "secio/" + kind,
			decode: func(b []byte) error { return read(bytes.NewReader(b)) },
			prefix: append(kindHeader(kind, 3), bytes.Repeat([]byte{1}, scalarsFirst[kind])...),
		})
	}
	clientV, clusterV := uvarint(clientProtocolVersion), uvarint(cluster.ProtocolVersion)
	return append(out,
		decoder{"client/hello", frame(func(m *clientHello) error { return checkClientVersion("client", m.Version) }), clientV},
		decoder{"client/hello-reply", frame(func(m *clientHelloReply) error { return checkClientVersion("server", m.Version) }), clientV},
		decoder{"client/execute", frame[clientExecuteRequest](nil), nil},
		decoder{"client/execute-reply", frame[clientExecuteReply](nil), nil},
		decoder{"client/apply", frame[clientApplyRequest](nil), nil},
		decoder{"client/apply-reply", frame[clientApplyReply](nil), nil},
		decoder{"client/compact", frame[clientCompactRequest](nil), nil},
		decoder{"cluster/hello", frame(func(m *cluster.HelloRequest) error { return cluster.CheckVersion(m.Version) }), clusterV},
		decoder{"cluster/hello-reply", frame(func(m *cluster.HelloReply) error { return cluster.CheckVersion(m.Version) }), clusterV},
		decoder{"cluster/candidates", frame[cluster.CandidatesRequest](nil), nil},
		decoder{"cluster/candidates-reply", frame[cluster.CandidatesReply](nil), uvarint(1)},
	)
}

// hostile claims 2⁴⁰ elements at the decoder's first count, in a body of
// under 32 bytes after the prefix.
func hostile(d decoder) []byte {
	return append(append(bytes.Clone(d.prefix), uvarint(1<<40)...), bytes.Repeat([]byte{1}, 8)...)
}

var (
	samplesOnce sync.Once
	samples     map[string][]byte
	samplesErr  error
)

// decoderSamples is one valid encoding per decoder, built from a small
// owner's real artifacts.
func decoderSamples(tb testing.TB) map[string][]byte {
	tb.Helper()
	samplesOnce.Do(func() { samples, samplesErr = buildSamples() })
	if samplesErr != nil {
		tb.Fatal(samplesErr)
	}
	return samples
}

func buildSamples() (map[string][]byte, error) {
	opts := []Option{WithKeyBits(256), WithEHLDigests(3), WithMaxScoreBits(20)}
	owner, err := NewOwner(opts...)
	if err != nil {
		return nil, err
	}
	jowner, err := NewJoinOwner(opts...)
	if err != nil {
		return nil, err
	}
	rel := &Relation{Name: "r", Rows: [][]int64{{10, 3, 2}, {8, 8, 0}, {5, 7, 6}, {3, 2, 8}}}
	er, err := owner.Encrypt(rel)
	if err != nil {
		return nil, err
	}
	tk, err := owner.Token(er, Query{Attrs: []int{0, 1}, Weights: []int64{2, 1}, K: 2})
	if err != nil {
		return nil, err
	}
	ker, err := owner.EncryptKNN(rel)
	if err != nil {
		return nil, err
	}
	jer, err := jowner.Encrypt(rel)
	if err != nil {
		return nil, err
	}
	jtk, err := jowner.Token(jer, jer, JoinQuery{JoinAttr1: 0, JoinAttr2: 0, ScoreAttr1: 1, ScoreAttr2: 2, Project1: []int{2}, K: 1})
	if err != nil {
		return nil, err
	}
	mr, err := owner.NewMutable(rel, er)
	if err != nil {
		return nil, err
	}
	delta, err := mr.InsertRows([][]int64{{1, 2, 3}})
	if err != nil {
		return nil, err
	}
	st, err := er.mutableState()
	if err != nil {
		return nil, err
	}
	pk := owner.scheme.PublicKey()
	shard0 := er.sh.Shards[0]
	var items []protocols.Item
	for _, it := range shard0.Lists[0][:2] {
		items = append(items, protocols.Item{EHL: it.EHL, Scores: []*paillier.Ciphertext{it.Score}})
	}
	attr := jer.er.Tuples[0][0]
	cands := &core.CandidateSet{Items: items, Residuals: []*paillier.Ciphertext{shard0.Lists[1][0].Score}, Depth: 2, Halted: true}
	mir := &secio.OwnerMirror{Name: "r", P: 1, M: 3, NextID: 4, Epoch: 1, IDs: []int{0, 1, 2, 3}, Rows: rel.Rows}
	writers := map[string]func(io.Writer) error{
		"token":      func(w io.Writer) error { return secio.WriteToken(w, tk.tk) },
		"join-token": func(w io.Writer) error { return secio.WriteJoinToken(w, jtk.tk) },
		"knn-token":  func(w io.Writer) error { return secio.WriteKNNToken(w, []int64{1, 2, 3}, 2) },
		"result":     func(w io.Writer) error { return secio.WriteQueryResult(w, items, 2, true) },
		"join-result": func(w io.Writer) error {
			return secio.WriteJoinResult(w, []protocols.JoinTuple{{Score: attr.Value, Attrs: []*paillier.Ciphertext{attr.Value}}})
		},
		"knn-result": func(w io.Writer) error { return secio.WriteKNNResult(w, items) },
		"candidates": func(w io.Writer) error { return secio.WriteCandidates(w, cands) },
		"keys":       func(w io.Writer) error { return secio.WriteKeyMaterial(w, owner.scheme.KeyMaterial()) },
		"owner":      func(w io.Writer) error { return secio.WriteOwnerBundle(w, owner.scheme) },
		"join-owner": func(w io.Writer) error { return secio.WriteJoinOwnerBundle(w, jowner.scheme) },
		"hosted-join-relation": func(w io.Writer) error {
			return secio.WriteHostedJoinRelation(w, jer.er, ehl.Params{Kind: ehl.KindPlus, S: jer.ehlS}, jer.maxScoreBits, jer.pk)
		},
		"hosted-knn-relation": func(w io.Writer) error { return secio.WriteHostedKNNRelation(w, ker.db, ker.maxScoreBits, ker.pk) },
		"hosted-subset": func(w io.Writer) error {
			return secio.WriteHostedSubset(w, 1, []int{0}, []*core.EncryptedRelation{shard0}, 1, pk)
		},
		"hosted-mutable": func(w io.Writer) error { return secio.WriteMutableHosted(w, st, pk) },
		"mutable-owner":  func(w io.Writer) error { return secio.WriteOwnerMutable(w, mir, st, pk) },
		"delta":          func(w io.Writer) error { return secio.WriteDelta(w, delta.d, delta.params) },
	}
	out := make(map[string][]byte)
	for kind, write := range writers {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
		out["secio/"+kind] = buf.Bytes()
	}
	frames := map[string]encoding.BinaryMarshaler{
		"client/hello":       clientHello{Version: clientProtocolVersion, Tenant: "t"},
		"client/hello-reply": clientHelloReply{Version: clientProtocolVersion},
		"client/execute": clientExecuteRequest{Relation: "r", Workload: "topk", Token: out["secio/token"],
			Options: wireQueryOptions{Mode: -1, BatchDepth: 4, Epoch: 2}, Idempotency: "q", Attempt: 1},
		"client/execute-reply": clientExecuteReply{Answer: out["secio/result"], S2Calls: 33, FanOut: 2, MergeFallbacks: 1, Epoch: 1},
		"client/apply":         clientApplyRequest{Relation: "r", Delta: out["secio/delta"]},
		"client/apply-reply":   clientApplyReply{Epoch: 3},
		"client/compact":       clientCompactRequest{Relation: "r"},
		"cluster/hello":        cluster.HelloRequest{Version: cluster.ProtocolVersion},
		"cluster/hello-reply": cluster.HelloReply{Version: cluster.ProtocolVersion, Member: "m0",
			Subsets: []cluster.SubsetInfo{{Relation: "r", Total: 2, Indices: []int{1}, Rows: []int{2}, M: 3, MaxScoreBits: 20, Epoch: 1, PK: pk.N}},
			Routes:  []cluster.RouteInfo{{Relation: "j", Workload: "join"}}},
		"cluster/candidates": cluster.CandidatesRequest{Relation: "r", Token: out["secio/token"],
			Options: core.Options{Mode: core.QryE, ExactScan: true, QueryID: "q"}, Epoch: 1},
		"cluster/candidates-reply": cluster.CandidatesReply{Epoch: 1, Sets: [][]byte{out["secio/candidates"]}},
	}
	for name, m := range frames {
		b, err := transport.Encode(m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = b
	}
	return out, nil
}

// typed reports whether err is a refusal a peer can act on.
func typed(err error) bool {
	c := secerr.CodeOf(err)
	return c == secerr.CodeBadRequest || c == secerr.CodeProtocolVersion
}

// TestEveryKindHasSeed is the corpus rule of the S1↔S2 method table for
// every other decoder: each secio kind has a decoder, and each decoder has
// a valid seed that decodes and a hostile one that is refused.
func TestEveryKindHasSeed(t *testing.T) {
	ds := decoders()
	names := map[string]bool{}
	for _, d := range ds {
		names[d.name] = true
	}
	for _, kind := range secio.Kinds() {
		if kindReaders[kind] == nil || !names["secio/"+kind] {
			t.Errorf("secio kind %q has no decoder in the table", kind)
		}
	}
	samples := decoderSamples(t)
	for _, d := range ds {
		b, ok := samples[d.name]
		if !ok {
			t.Errorf("%s: no seed", d.name)
			continue
		}
		if err := d.decode(b); err != nil {
			t.Errorf("%s: seed does not decode: %v", d.name, err)
		}
		if err := d.decode(hostile(d)); !typed(err) {
			t.Errorf("%s: hostile seed: err = %v, want a typed refusal", d.name, err)
		}
	}
	if len(samples) != len(ds) {
		t.Errorf("%d seeds for %d decoders", len(samples), len(ds))
	}
}

// gobHeader is the header every stream led with up to format version 2.
type gobHeader struct {
	Magic   string
	Version int
	Kind    string
}

// TestDecodeRefusesTyped feeds every decoder its seed cut short and with a
// byte appended, and every secio reader another kind's seed and a gob-era
// stream of its own kind at version 2: each is refused typed, never a
// panic and never an untyped error.
func TestDecodeRefusesTyped(t *testing.T) {
	samples := decoderSamples(t)
	ds := decoders()
	for i, d := range ds {
		b := samples[d.name]
		cases := map[string][]byte{
			"empty":     nil,
			"truncated": b[:len(b)-1],
			"half":      b[:len(b)/2],
			"trailing":  append(bytes.Clone(b), 0),
		}
		if kind, ok := strings.CutPrefix(d.name, "secio/"); ok {
			other := ds[(i+1)%len(secio.Kinds())]
			cases["wrong kind"] = samples[other.name]
			var gobEra bytes.Buffer
			enc := gob.NewEncoder(&gobEra)
			if err := enc.Encode(gobHeader{Magic: "sectopk-er", Version: 2, Kind: kind}); err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(struct{ N *big.Int }{big.NewInt(7)}); err != nil {
				t.Fatal(err)
			}
			cases["version 2"] = gobEra.Bytes()
		}
		for name, in := range cases {
			err := d.decode(in)
			if secerr.CodeOf(err) != secerr.CodeBadRequest {
				t.Errorf("%s, %s: err = %v (code %q), want bad_request", d.name, name, err, secerr.CodeOf(err))
			}
			if name == "version 2" && !strings.Contains(fmt.Sprint(err), "version 2") {
				t.Errorf("%s: gob-era refusal %q does not name version 2", d.name, err)
			}
		}
	}
}

// TestHostileCountsBounded: a count of 2⁴⁰ is refused before anything is
// allocated for it.
func TestHostileCountsBounded(t *testing.T) {
	for _, d := range decoders() {
		in := hostile(d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(20, func() { _ = d.decode(in) })
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / 21; allocs > 64 || perRun > 16<<10 {
			t.Errorf("%s: %.0f allocations, %d bytes refusing %d bytes", d.name, allocs, perRun, len(in))
		}
	}
}

// FuzzDecode drives every decoder in the table: the first byte picks the
// decoder, the rest is its input. A decoder may accept or refuse, but a
// refusal must be typed, and what it allocates must follow the bytes it
// was given, not the lengths they claim.
func FuzzDecode(f *testing.F) {
	ds := decoders()
	samples := decoderSamples(f)
	for i, d := range ds {
		f.Add(append([]byte{byte(i)}, samples[d.name]...))
		f.Add(append([]byte{byte(i)}, hostile(d)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := ds[int(data[0])%len(ds)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := d.decode(data[1:])
		runtime.ReadMemStats(&after)
		if err != nil && !typed(err) {
			t.Fatalf("%s: untyped refusal (code %q): %v", d.name, secerr.CodeOf(err), err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); got > limit {
			t.Fatalf("%s: %d bytes allocated decoding %d bytes (limit %d)", d.name, got, len(data), limit)
		}
	})
}

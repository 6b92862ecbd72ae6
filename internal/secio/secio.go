// Package secio serializes the system's persistent artifacts: encrypted
// relations (the ER a data owner uploads to S1), encrypted join
// relations, and query tokens. The format is a versioned gob stream, so
// a stored ER can be loaded by a different process — the deployment shape
// of Section 3.2 where the data owner uploads once and goes offline.
//
// Only public/encrypted material is ever serialized here; key material
// stays with the owner and the crypto cloud.
package secio

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/paillier"
	"repro/internal/secerr"
)

// magic identifies sectopk gob streams; version gates format changes.
// Every artifact is written and read by the same build, so writers stamp
// the one current version and readers refuse any other.
const (
	magic   = "sectopk-er"
	version = 2
)

// header leads every stream.
type header struct {
	Magic   string
	Version int
	Kind    string // "token", "result", "hosted-mutable", ...
}

// wireEncItem flattens one encrypted item.
type wireEncItem struct {
	EHL   []*big.Int
	Score *big.Int
}

// wireRelation flattens core.EncryptedRelation.
type wireRelation struct {
	Name         string
	N, M         int
	EHLKind      int
	EHLS         int
	EHLH         int
	MaxScoreBits int
	Lists        [][]wireEncItem
}

// encodeRelation flattens an encrypted relation to its wire form.
func encodeRelation(er *core.EncryptedRelation) (*wireRelation, error) {
	if er == nil {
		return nil, errors.New("secio: nil relation")
	}
	wr := &wireRelation{
		Name: er.Name, N: er.N, M: er.M,
		EHLKind: int(er.EHLParams.Kind), EHLS: er.EHLParams.S, EHLH: er.EHLParams.H,
		MaxScoreBits: er.MaxScoreBits,
		Lists:        make([][]wireEncItem, len(er.Lists)),
	}
	for i, list := range er.Lists {
		wl := make([]wireEncItem, len(list))
		for j, it := range list {
			if it.EHL == nil || it.Score == nil {
				return nil, fmt.Errorf("secio: incomplete item at (%d,%d)", i, j)
			}
			w := wireEncItem{Score: it.Score.C}
			for _, ct := range it.EHL.Cts {
				w.EHL = append(w.EHL, ct.C)
			}
			wl[j] = w
		}
		wr.Lists[i] = wl
	}
	return wr, nil
}

// decodeRelation rebuilds an encrypted relation from its wire form.
func decodeRelation(wr *wireRelation) (*core.EncryptedRelation, error) {
	params := ehl.Params{Kind: ehl.Kind(wr.EHLKind), S: wr.EHLS, H: wr.EHLH}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("secio: stored EHL params invalid: %w", err)
	}
	er := &core.EncryptedRelation{
		Name: wr.Name, N: wr.N, M: wr.M,
		EHLParams: params, MaxScoreBits: wr.MaxScoreBits,
		Lists: make([][]core.EncItem, len(wr.Lists)),
	}
	if len(wr.Lists) != wr.M {
		return nil, fmt.Errorf("secio: stored relation has %d lists for M=%d", len(wr.Lists), wr.M)
	}
	for i, wl := range wr.Lists {
		if len(wl) != wr.N {
			return nil, fmt.Errorf("secio: list %d has %d items for N=%d", i, len(wl), wr.N)
		}
		list := make([]core.EncItem, len(wl))
		for j, w := range wl {
			if w.Score == nil || len(w.EHL) != params.Width() {
				return nil, fmt.Errorf("secio: malformed item at (%d,%d)", i, j)
			}
			l := &ehl.List{Kind: params.Kind}
			for _, v := range w.EHL {
				l.Cts = append(l.Cts, &paillier.Ciphertext{C: v})
			}
			list[j] = core.EncItem{EHL: l, Score: &paillier.Ciphertext{C: w.Score}}
		}
		er.Lists[i] = list
	}
	return er, nil
}

// check validates a stream header. All failures are typed
// secerr.CodeBadRequest so callers (and wire peers) can distinguish "you
// handed me a bad/foreign artifact" from internal faults; the version
// branch names both the found version and the supported one, which is
// what a stranded operator needs to see.
func (h header) check(kind string) error {
	if h.Magic != magic {
		return secerr.New(secerr.CodeBadRequest, "secio: not a sectopk stream (magic %q)", h.Magic)
	}
	if h.Version != version {
		return secerr.New(secerr.CodeBadRequest,
			"secio: unsupported format version %d (this build reads and writes version %d only)", h.Version, version)
	}
	if h.Kind != kind {
		return secerr.New(secerr.CodeBadRequest, "secio: stream holds %q, expected %q", h.Kind, kind)
	}
	return nil
}

// wireJoinAttr flattens one encrypted join attribute cell.
type wireJoinAttr struct {
	EHL   []*big.Int
	Value *big.Int
}

// wireJoinRelation flattens join.EncRelation.
type wireJoinRelation struct {
	Name    string
	N, M    int
	EHLKind int
	EHLS    int
	EHLH    int
	Tuples  [][]wireJoinAttr
}

// encodeJoinRelation flattens a join relation to its wire form.
func encodeJoinRelation(er *join.EncRelation, params ehl.Params) (*wireJoinRelation, error) {
	if er == nil {
		return nil, errors.New("secio: nil join relation")
	}
	wr := &wireJoinRelation{
		Name: er.Name, N: er.N, M: er.M,
		EHLKind: int(params.Kind), EHLS: params.S, EHLH: params.H,
		Tuples: make([][]wireJoinAttr, len(er.Tuples)),
	}
	for i, tuple := range er.Tuples {
		wt := make([]wireJoinAttr, len(tuple))
		for j, a := range tuple {
			if a.EHL == nil || a.Value == nil {
				return nil, fmt.Errorf("secio: incomplete join attr at (%d,%d)", i, j)
			}
			wa := wireJoinAttr{Value: a.Value.C}
			for _, ct := range a.EHL.Cts {
				wa.EHL = append(wa.EHL, ct.C)
			}
			wt[j] = wa
		}
		wr.Tuples[i] = wt
	}
	return wr, nil
}

// decodeJoinRelation rebuilds a join relation from its wire form.
func decodeJoinRelation(wr *wireJoinRelation) (*join.EncRelation, ehl.Params, error) {
	params := ehl.Params{Kind: ehl.Kind(wr.EHLKind), S: wr.EHLS, H: wr.EHLH}
	if err := params.Validate(); err != nil {
		return nil, ehl.Params{}, err
	}
	er := &join.EncRelation{Name: wr.Name, N: wr.N, M: wr.M, Tuples: make([][]join.EncAttr, len(wr.Tuples))}
	for i, wt := range wr.Tuples {
		tuple := make([]join.EncAttr, len(wt))
		for j, wa := range wt {
			if wa.Value == nil || len(wa.EHL) != params.Width() {
				return nil, ehl.Params{}, fmt.Errorf("secio: malformed join attr at (%d,%d)", i, j)
			}
			l := &ehl.List{Kind: params.Kind}
			for _, v := range wa.EHL {
				l.Cts = append(l.Cts, &paillier.Ciphertext{C: v})
			}
			tuple[j] = join.EncAttr{EHL: l, Value: &paillier.Ciphertext{C: wa.Value}}
		}
		er.Tuples[i] = tuple
	}
	return er, params, nil
}

// WriteToken serializes a query token (what an authorized client sends to
// S1).
func WriteToken(w io.Writer, tk *core.Token) error {
	if tk == nil {
		return errors.New("secio: nil token")
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: "token"}); err != nil {
		return err
	}
	return enc.Encode(tk)
}

// ReadToken deserializes a query token.
func ReadToken(r io.Reader) (*core.Token, error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, err
	}
	if err := h.check("token"); err != nil {
		return nil, err
	}
	var tk core.Token
	if err := dec.Decode(&tk); err != nil {
		return nil, err
	}
	return &tk, nil
}

package secio

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/paillier"
	"repro/internal/protocols"
)

// This file serializes the artifacts the public sectopk facade moves
// between parties: join relations bundled with the public key they were
// encrypted under and their score-bit metadata (so S1 can host them from
// a single file), join tokens, and full query results (items + depth +
// halted flag). Top-k relations travel as "hosted-mutable" bundles (see
// mutate.go).

// wireJoinMeta carries the schema metadata a hosted join relation needs
// beyond the tuples themselves.
type wireJoinMeta struct {
	N            *big.Int // public modulus
	MaxScoreBits int
}

// WriteHostedJoinRelation serializes an encrypted join relation together
// with its public key and score-bit bound.
func WriteHostedJoinRelation(w io.Writer, er *join.EncRelation, params ehl.Params, maxScoreBits int, pk *paillier.PublicKey) error {
	if pk == nil || pk.N == nil {
		return errors.New("secio: nil public key")
	}
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: "hosted-join-relation"}); err != nil {
		return fmt.Errorf("secio: writing header: %w", err)
	}
	if err := enc.Encode(wireJoinMeta{N: pk.N, MaxScoreBits: maxScoreBits}); err != nil {
		return fmt.Errorf("secio: writing join metadata: %w", err)
	}
	wr, err := encodeJoinRelation(er, params)
	if err != nil {
		return err
	}
	if err := enc.Encode(wr); err != nil {
		return fmt.Errorf("secio: writing join relation: %w", err)
	}
	return bw.Flush()
}

// ReadHostedJoinRelation deserializes a join relation bundle.
func ReadHostedJoinRelation(r io.Reader) (*join.EncRelation, ehl.Params, int, *paillier.PublicKey, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, ehl.Params{}, 0, nil, fmt.Errorf("secio: reading header: %w", err)
	}
	if err := h.check("hosted-join-relation"); err != nil {
		return nil, ehl.Params{}, 0, nil, err
	}
	var meta wireJoinMeta
	if err := dec.Decode(&meta); err != nil {
		return nil, ehl.Params{}, 0, nil, fmt.Errorf("secio: reading join metadata: %w", err)
	}
	pk, err := paillier.NewPublicKeyFromN(meta.N)
	if err != nil {
		return nil, ehl.Params{}, 0, nil, err
	}
	var wr wireJoinRelation
	if err := dec.Decode(&wr); err != nil {
		return nil, ehl.Params{}, 0, nil, fmt.Errorf("secio: reading join relation: %w", err)
	}
	er, params, err := decodeJoinRelation(&wr)
	if err != nil {
		return nil, ehl.Params{}, 0, nil, err
	}
	return er, params, meta.MaxScoreBits, pk, nil
}

// WriteJoinToken serializes a join trapdoor.
func WriteJoinToken(w io.Writer, tk *join.Token) error {
	if tk == nil {
		return errors.New("secio: nil join token")
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: "join-token"}); err != nil {
		return err
	}
	return enc.Encode(tk)
}

// ReadJoinToken deserializes a join trapdoor.
func ReadJoinToken(r io.Reader) (*join.Token, error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, err
	}
	if err := h.check("join-token"); err != nil {
		return nil, err
	}
	var tk join.Token
	if err := dec.Decode(&tk); err != nil {
		return nil, err
	}
	return &tk, nil
}

// wireResultMeta carries the scalar outcome of a query run.
type wireResultMeta struct {
	Depth  int
	Halted bool
}

// WriteQueryResult serializes a full query outcome: the encrypted items
// plus the scan depth and halting flag.
func WriteQueryResult(w io.Writer, items []protocols.Item, depth int, halted bool) error {
	wi, err := encodeItems(items)
	if err != nil {
		return err
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: "result"}); err != nil {
		return err
	}
	if err := enc.Encode(wireResultMeta{Depth: depth, Halted: halted}); err != nil {
		return err
	}
	return enc.Encode(wi)
}

// ReadQueryResult deserializes a full query outcome.
func ReadQueryResult(r io.Reader) (items []protocols.Item, depth int, halted bool, err error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, 0, false, err
	}
	if err := h.check("result"); err != nil {
		return nil, 0, false, err
	}
	var meta wireResultMeta
	if err := dec.Decode(&meta); err != nil {
		return nil, 0, false, err
	}
	var wi wireItems
	if err := dec.Decode(&wi); err != nil {
		return nil, 0, false, err
	}
	return decodeItems(&wi), meta.Depth, meta.Halted, nil
}

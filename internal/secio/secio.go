// Package secio serializes the artifacts the parties hand each other:
// encrypted relations (the ER a data owner uploads to S1), join and kNN
// relations, tokens, answers, candidate sets, deltas and key material.
// Every stream is one internal/wire message,
//
//	string("sectopk-er") uvarint(version) string(kind), then the kind's fields
//
// (DESIGN.md "Stored and client-plane streams" lays out each kind), so a
// stored ER can be loaded by a different process — the deployment shape
// of Section 3.2 where the data owner uploads once and goes offline — and
// a stored token or answer is byte-identical to its client-wire payload.
// A reader refuses any other magic, version or kind, any field that does
// not parse, any byte after the last field and any body that breaks its
// own declared shape, always typed secerr.CodeBadRequest.
//
// The "keys", "owner", "join-owner" and "mutable-owner" kinds hold secrets
// or plaintext; every other kind holds only public or encrypted material.
package secio

import (
	"bytes"
	"fmt"
	"io"
	"math/big"

	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/secerr"
	"repro/internal/wire"
)

// Every artifact is written and read by the same build, so writers stamp
// the one current version and readers refuse any other. Version 6 stores
// a top-k relation's placement in "hosted-mutable", which so carries a
// cluster member's share too (version 5 gave shares a kind of their own).
// Keys from version 5 on are products of safe primes, which every party's
// nonce producer rests on (a version 4 key is not, so its stream is
// refused by number). Versions 4 to 6 store EHL parameters as the digest
// count alone; version 3 also stored a structure kind and a classic list
// length, and versions up to 2 were gob streams.
const (
	magic   = "sectopk-er"
	version = 6
)

// Kinds lists every stream kind this build writes and reads.
func Kinds() []string {
	return []string{
		"token", "join-token", "knn-token", "result", "join-result", "knn-result", "candidates",
		"keys", "owner", "join-owner", "hosted-join-relation", "hosted-knn-relation",
		"hosted-mutable", "mutable-owner", "delta",
	}
}

// write encodes one stream: the header, then the kind's fields.
func write(out io.Writer, kind string, body func(w *wire.Writer)) error {
	var w wire.Writer
	w.String(magic)
	w.Int("version", version)
	w.String(kind)
	body(&w)
	b, err := w.Finish()
	if err != nil {
		return fmt.Errorf("secio: writing %s: %w", kind, err)
	}
	_, err = out.Write(b)
	return err
}

// read decodes one stream of the given kind. The header failures name
// what a stranded operator needs to see: the version found and the one
// this build supports.
func read(in io.Reader, kind string, body func(r *wire.Reader)) error {
	b, err := io.ReadAll(in)
	if err != nil {
		return secerr.Wrap(secerr.CodeBadRequest, err, "secio: reading %s", kind)
	}
	r := wire.NewReader(b)
	if r.String("magic") != magic {
		if bytes.Contains(b[:min(len(b), 128)], []byte(magic)) {
			return secerr.New(secerr.CodeBadRequest,
				"secio: unsupported format version 2 or older, a gob stream (this build reads and writes version %d only)", version)
		}
		return secerr.New(secerr.CodeBadRequest, "secio: not a sectopk stream")
	}
	if v := r.Int("version"); r.Err() == nil && v != version {
		return secerr.New(secerr.CodeBadRequest,
			"secio: unsupported format version %d (this build reads and writes version %d only)", v, version)
	}
	if k := r.String("kind"); r.Err() == nil && k != kind {
		return secerr.New(secerr.CodeBadRequest, "secio: stream holds %q, expected %q", k, kind)
	}
	if r.Err() == nil {
		body(r)
	}
	return r.Finish()
}

// maxEHLWidth bounds a decoded digest count far above any the schemes use.
const maxEHLWidth = 1 << 16

// putEHL: uvarint(S).
func putEHL(w *wire.Writer, p ehl.Params) { w.Int("EHL s", p.S) }

func getEHL(r *wire.Reader) ehl.Params {
	return ehl.Params{Kind: ehl.KindPlus, S: getDigests(r)}
}

// getDigests reads a digest count in [1, maxEHLWidth].
func getDigests(r *wire.Reader) int {
	s := r.Int("EHL s")
	if r.Err() == nil && (s == 0 || s > maxEHLWidth) {
		r.Fail("secio: EHL digest count %d out of range", s)
	}
	return s
}

// putKey: integer(N).
func putKey(w *wire.Writer, pk *paillier.PublicKey) {
	if pk == nil || pk.N == nil {
		w.Fail("secio: nil public key")
		return
	}
	w.Big("N", pk.N)
}

// getKey reads the public modulus and caps every integer after it at
// |N²| bytes, the width of a ciphertext under it.
func getKey(r *wire.Reader) *paillier.PublicKey {
	n := r.Big("N")
	if r.Err() != nil {
		return nil
	}
	pk, err := paillier.NewPublicKeyFromN(n)
	if err != nil {
		r.Fail("secio: %v", err)
		return nil
	}
	r.LimitWidth((pk.N2.BitLen() + 7) / 8)
	return pk
}

// appendCts appends the integers of cs; a nil ciphertext becomes a nil
// integer, which the writer refuses.
func appendCts(dst []*big.Int, cs ...*paillier.Ciphertext) []*big.Int {
	for _, c := range cs {
		if c == nil {
			dst = append(dst, nil)
		} else {
			dst = append(dst, c.C)
		}
	}
	return dst
}

func ctList(vs []*big.Int) []*paillier.Ciphertext {
	if len(vs) == 0 {
		return nil
	}
	out := make([]*paillier.Ciphertext, len(vs))
	for i, v := range vs {
		out[i] = &paillier.Ciphertext{C: v}
	}
	return out
}

// cell is one encrypted cell: an EHL list and one ciphertext (a score,
// or a join attribute's value).
type cell struct {
	ehl *ehl.List
	ct  *paillier.Ciphertext
}

// putCells appends n cells as one integer list: cell i's EHL digests
// (exactly width of them), then its ciphertext.
func putCells(w *wire.Writer, what string, n, width int, at func(i int) (*ehl.List, *paillier.Ciphertext)) {
	vs := make([]*big.Int, 0, n*(width+1))
	for i := 0; i < n; i++ {
		l, c := at(i)
		if l == nil || c == nil || len(l.Cts) != width {
			w.Fail("secio: %s: cell %d is incomplete", what, i)
			return
		}
		vs = appendCts(appendCts(vs, l.Cts...), c)
	}
	w.Bigs(what, vs)
}

// getCells reads a list putCells wrote, which must hold exactly n cells
// under the EHL parameters p.
func getCells(r *wire.Reader, what string, n int, p ehl.Params) []cell {
	vs := r.Bigs(what)
	width := p.Width() + 1
	if r.Err() == nil && (len(vs)%width != 0 || len(vs)/width != n) {
		r.Fail("secio: %s holds %d ciphertexts, not %d cells of %d", what, len(vs), n, width)
	}
	if r.Err() != nil {
		return nil
	}
	out := make([]cell, n)
	for i := range out {
		row := ctList(vs[i*width : (i+1)*width])
		out[i] = cell{ehl: &ehl.List{Cts: row[: width-1 : width-1]}, ct: row[width-1]}
	}
	return out
}

// putRelation: string(Name) uvarint(M) EHL parameters uvarint(MaxScoreBits)
// uvarint(depth), then per list one cell list of depth cells. The depth is
// N, except in a mutable shard, whose lists run live + dead deep.
func putRelation(w *wire.Writer, er *core.EncryptedRelation, depth int) {
	if er == nil || len(er.Lists) != er.M {
		w.Fail("secio: nil relation or lists that disagree with M")
		return
	}
	w.String(er.Name)
	w.Int("M", er.M)
	putEHL(w, er.EHLParams)
	w.Int("MaxScoreBits", er.MaxScoreBits)
	w.Int("N", depth)
	for p, list := range er.Lists {
		if len(list) != depth {
			w.Fail("secio: list %d holds %d items for depth %d", p, len(list), depth)
			return
		}
		putCells(w, "list", depth, er.EHLParams.Width(), func(i int) (*ehl.List, *paillier.Ciphertext) {
			return list[i].EHL, list[i].Score
		})
	}
}

// getRelation reads putRelation's layout; the relation's N is the depth.
func getRelation(r *wire.Reader) *core.EncryptedRelation {
	er := &core.EncryptedRelation{Name: r.String("Name"), M: r.Count("M", 1), EHLParams: getEHL(r)}
	er.MaxScoreBits, er.N = r.Int("MaxScoreBits"), r.Count("N", 1)
	er.Lists = make([][]core.EncItem, er.M)
	for p := range er.Lists {
		cells := getCells(r, "list", er.N, er.EHLParams)
		if r.Err() != nil {
			return nil
		}
		list := make([]core.EncItem, len(cells))
		for i, c := range cells {
			list[i] = core.EncItem{EHL: c.ehl, Score: c.ct}
		}
		er.Lists[p] = list
	}
	return er
}

// putItems: uvarint(count), then per item its EHL digests and its
// scores, two integer lists.
func putItems(w *wire.Writer, items []protocols.Item) {
	w.Uvarint(uint64(len(items)))
	var vs []*big.Int
	for i, it := range items {
		if it.EHL == nil {
			w.Fail("secio: item %d has no EHL", i)
			return
		}
		vs = appendCts(vs[:0], it.EHL.Cts...)
		w.Bigs("EHL", vs)
		vs = appendCts(vs[:0], it.Scores...)
		w.Bigs("Scores", vs)
	}
}

func getItems(r *wire.Reader) []protocols.Item {
	n := r.Count("items", 2)
	if r.Err() != nil {
		return nil
	}
	out := make([]protocols.Item, n)
	for i := range out {
		out[i] = protocols.Item{EHL: &ehl.List{Cts: ctList(r.Bigs("EHL"))}, Scores: ctList(r.Bigs("Scores"))}
	}
	return out
}

package secio

import (
	"io"
	"math/big"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/wire"
)

// The query-plane kinds: the three tokens an authorized client sends to
// S1, the three answers S1 returns, and "candidates", one shard's part of
// a distributed merge, which a cluster member returns to its front door.
// The same bytes are a file and a client- or cluster-wire payload.

// WriteToken serializes a query token: uvarint(K) uvarint list(Lists)
// signed list(Weights).
func WriteToken(w io.Writer, tk *core.Token) error {
	return write(w, "token", func(w *wire.Writer) {
		if tk == nil {
			w.Fail("secio: nil token")
			return
		}
		w.Int("K", tk.K)
		w.Ints("Lists", tk.Lists)
		w.Varints(tk.Weights)
	})
}

// ReadToken deserializes a query token.
func ReadToken(r io.Reader) (*core.Token, error) {
	var tk core.Token
	err := read(r, "token", func(r *wire.Reader) {
		tk = core.Token{K: r.Int("K"), Lists: r.Ints("Lists"), Weights: r.Varints("Weights")}
	})
	if err != nil {
		return nil, err
	}
	return &tk, nil
}

// WriteJoinToken serializes a join trapdoor: uvarint(K) uvarint(JoinPos1)
// uvarint(JoinPos2) uvarint(ScorePos1) uvarint(ScorePos2) uvarint
// list(Proj1) uvarint list(Proj2).
func WriteJoinToken(w io.Writer, tk *join.Token) error {
	return write(w, "join-token", func(w *wire.Writer) {
		if tk == nil {
			w.Fail("secio: nil join token")
			return
		}
		w.Int("K", tk.K)
		w.Int("JoinPos1", tk.JoinPos1)
		w.Int("JoinPos2", tk.JoinPos2)
		w.Int("ScorePos1", tk.ScorePos1)
		w.Int("ScorePos2", tk.ScorePos2)
		w.Ints("Proj1", tk.Proj1)
		w.Ints("Proj2", tk.Proj2)
	})
}

// ReadJoinToken deserializes a join trapdoor.
func ReadJoinToken(r io.Reader) (*join.Token, error) {
	var tk join.Token
	err := read(r, "join-token", func(r *wire.Reader) {
		tk = join.Token{K: r.Int("K"), JoinPos1: r.Int("JoinPos1"), JoinPos2: r.Int("JoinPos2"),
			ScorePos1: r.Int("ScorePos1"), ScorePos2: r.Int("ScorePos2"), Proj1: r.Ints("Proj1"), Proj2: r.Ints("Proj2")}
	})
	if err != nil {
		return nil, err
	}
	return &tk, nil
}

// WriteKNNToken serializes a kNN trapdoor: signed list(point) uvarint(k).
// The point's length is the attribute count it was issued for.
func WriteKNNToken(w io.Writer, point []int64, k int) error {
	return write(w, "knn-token", func(w *wire.Writer) {
		if len(point) == 0 {
			w.Fail("secio: empty kNN query point")
			return
		}
		w.Varints(point)
		w.Int("k", k)
	})
}

// ReadKNNToken deserializes a kNN trapdoor.
func ReadKNNToken(r io.Reader) (point []int64, k int, err error) {
	err = read(r, "knn-token", func(r *wire.Reader) {
		point, k = r.Varints("point"), r.Int("k")
		if r.Err() == nil && len(point) == 0 {
			r.Fail("secio: kNN token has no query point")
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return point, k, nil
}

// WriteQueryResult serializes a full query outcome: uvarint(depth)
// uvarint(halted), then the items.
func WriteQueryResult(w io.Writer, items []protocols.Item, depth int, halted bool) error {
	return write(w, "result", func(w *wire.Writer) {
		w.Int("depth", depth)
		w.Bool(halted)
		putItems(w, items)
	})
}

// ReadQueryResult deserializes a full query outcome.
func ReadQueryResult(r io.Reader) (items []protocols.Item, depth int, halted bool, err error) {
	err = read(r, "result", func(r *wire.Reader) {
		depth, halted, items = r.Int("depth"), r.Bool("halted"), getItems(r)
	})
	if err != nil {
		return nil, 0, false, err
	}
	return items, depth, halted, nil
}

// WriteKNNResult serializes the encrypted outcome of a kNN query: the
// ranked items (encrypted ids and squared distances).
func WriteKNNResult(w io.Writer, items []protocols.Item) error {
	return write(w, "knn-result", func(w *wire.Writer) { putItems(w, items) })
}

// ReadKNNResult deserializes an encrypted kNN outcome.
func ReadKNNResult(r io.Reader) ([]protocols.Item, error) {
	var items []protocols.Item
	if err := read(r, "knn-result", func(r *wire.Reader) { items = getItems(r) }); err != nil {
		return nil, err
	}
	return items, nil
}

// WriteJoinResult serializes the encrypted outcome of a top-k join:
// uvarint(count), then per tuple integer(Score) and integer list(Attrs).
func WriteJoinResult(w io.Writer, tuples []protocols.JoinTuple) error {
	return write(w, "join-result", func(w *wire.Writer) {
		w.Uvarint(uint64(len(tuples)))
		var vs []*big.Int
		for _, t := range tuples {
			vs = appendCts(vs[:0], t.Score)
			w.Big("Score", vs[0])
			vs = appendCts(vs[:0], t.Attrs...)
			w.Bigs("Attrs", vs)
		}
	})
}

// ReadJoinResult deserializes an encrypted join outcome.
func ReadJoinResult(r io.Reader) ([]protocols.JoinTuple, error) {
	var out []protocols.JoinTuple
	err := read(r, "join-result", func(r *wire.Reader) {
		n := r.Count("tuples", 2)
		if r.Err() != nil {
			return
		}
		out = make([]protocols.JoinTuple, n)
		for i := range out {
			out[i] = protocols.JoinTuple{Score: &paillier.Ciphertext{C: r.Big("Score")}, Attrs: ctList(r.Bigs("Attrs"))}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteCandidates serializes one shard's candidate contribution to a
// distributed merge: uvarint(Depth) uvarint(Halted) integer
// list(Residuals), then the items.
func WriteCandidates(w io.Writer, cs *core.CandidateSet) error {
	return write(w, "candidates", func(w *wire.Writer) {
		if cs == nil {
			w.Fail("secio: nil candidate set")
			return
		}
		w.Int("Depth", cs.Depth)
		w.Bool(cs.Halted)
		w.Bigs("Residuals", appendCts(nil, cs.Residuals...))
		putItems(w, cs.Items)
	})
}

// ReadCandidates deserializes one shard's candidate contribution.
func ReadCandidates(r io.Reader) (*core.CandidateSet, error) {
	var cs core.CandidateSet
	err := read(r, "candidates", func(r *wire.Reader) {
		cs.Depth, cs.Halted, cs.Residuals = r.Int("Depth"), r.Bool("Halted"), ctList(r.Bigs("Residuals"))
		cs.Items = getItems(r)
	})
	if err != nil {
		return nil, err
	}
	return &cs, nil
}

package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/sectopk"
)

func runOwner(args []string) error {
	fs := flag.NewFlagSet("owner", flag.ExitOnError)
	dir := fs.String("dir", ".", "artifact directory")
	name := fs.String("dataset", "insurance", "dataset spec (insurance|diabetes|PAMAP|synthetic)")
	rows := fs.Int("rows", 40, "dataset rows")
	seed := fs.Int64("seed", 1, "dataset seed")
	keyBits := fs.Int("keybits", 256, "Paillier modulus bits")
	attrsFlag := fs.String("attrs", "0,1,2", "queried attributes (comma separated)")
	k := fs.Int("k", 3, "top-k")
	shards := fs.Int("shards", 1, "partition the relation into p shards at encryption time (queries run shards concurrently)")
	nodesFlag := fs.String("nodes", "", "also cut cluster shard subsets for these fleet sizes (comma list, e.g. 1,2): writes relation.node<i>-of-<n>.er per member")
	workloadsFlag := fs.String("workloads", "topk", "workloads to provision: comma list of topk,join,knn")
	joinRows := fs.Int("join-rows", 8, "rows per join relation (the oblivious join costs O(n1*n2))")
	if err := fs.Parse(args); err != nil {
		return err
	}
	workloads, err := parseWorkloads(*workloadsFlag)
	if err != nil {
		return err
	}
	rel, err := sectopk.GenerateDataset(*name, *rows, *seed)
	if err != nil {
		return err
	}
	opts := []sectopk.Option{
		sectopk.WithKeyBits(*keyBits),
		sectopk.WithMaxScoreBits(20),
		sectopk.WithShards(*shards),
	}
	owner, err := sectopk.NewOwner(opts...)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	attrs, err := parseInts(*attrsFlag)
	if err != nil {
		return err
	}

	if workloads["topk"] {
		start := time.Now()
		er, err := owner.Encrypt(rel)
		if err != nil {
			return err
		}
		fmt.Printf("encrypted %s (%dx%d, %d shard(s)) in %s\n", er.Name(), er.Rows(), er.Attributes(),
			er.Shards(), time.Since(start).Round(time.Millisecond))
		if err := er.Save(filepath.Join(*dir, relationFile)); err != nil {
			return err
		}
		tk, err := owner.Token(er, sectopk.Query{Attrs: attrs, K: *k})
		if err != nil {
			return err
		}
		if err := tk.Save(filepath.Join(*dir, tokenFile)); err != nil {
			return err
		}
		// The mutable mirror is what lets the owner produce encrypted
		// deltas later (sectopk-node apply) without re-encrypting.
		mr, err := owner.NewMutable(rel, er)
		if err != nil {
			return err
		}
		if err := mr.Save(filepath.Join(*dir, mirrorFile)); err != nil {
			return err
		}
		// Cluster provisioning: for each requested fleet size n, deal the
		// relation's shards round-robin into n subset files — member i of
		// an n-node fleet hosts relation.node<i>-of-<n>.er. The subsets
		// tile the relation exactly, which the front door verifies when it
		// assembles the placement.
		if *nodesFlag != "" {
			sizes, err := parseInts(*nodesFlag)
			if err != nil {
				return err
			}
			for _, n := range sizes {
				if n < 1 || n > er.Shards() {
					return fmt.Errorf("-nodes %d: fleet size must be in 1..%d (the shard count)", n, er.Shards())
				}
				for i := 0; i < n; i++ {
					var indices []int
					for j := i; j < er.Shards(); j += n {
						indices = append(indices, j)
					}
					sub, err := er.Subset(indices...)
					if err != nil {
						return err
					}
					name := fmt.Sprintf("relation.node%d-of-%d.er", i, n)
					if err := sub.Save(filepath.Join(*dir, name)); err != nil {
						return err
					}
					fmt.Printf("cut %s: shards %v of %d\n", name, indices, er.Shards())
				}
			}
		}
	}

	if workloads["knn"] {
		ker, err := owner.EncryptKNN(rel)
		if err != nil {
			return err
		}
		if err := ker.Save(filepath.Join(*dir, knnFile)); err != nil {
			return err
		}
		// Demo query: the k records nearest to the first record.
		point := append([]int64(nil), rel.Rows[0]...)
		ktk, err := owner.KNNToken(ker, sectopk.KNNQuery{Point: point, K: *k})
		if err != nil {
			return err
		}
		if err := ktk.Save(filepath.Join(*dir, knnTokenFile)); err != nil {
			return err
		}
		fmt.Printf("encrypted kNN store %s (%dx%d), token asks the %d nearest to row 0\n",
			ker.Name(), ker.Rows(), ker.Attributes(), *k)
	}

	if workloads["join"] {
		if len(rel.Rows[0]) < 3 {
			return fmt.Errorf("join workload needs >= 3 attributes, dataset has %d", len(rel.Rows[0]))
		}
		n := *joinRows
		if n > len(rel.Rows) {
			n = len(rel.Rows)
		}
		// Two relations sharing join-attribute values: every r1 tuple has
		// at least its twin in r2, so the demo equi-join is never empty.
		r1 := &sectopk.Relation{Name: rel.Name + "-j1", Rows: rel.Rows[:n]}
		r2 := &sectopk.Relation{Name: rel.Name + "-j2", Rows: rel.Rows[:n]}
		jowner, err := sectopk.NewJoinOwner(opts...)
		if err != nil {
			return err
		}
		jr1, err := jowner.Encrypt(r1)
		if err != nil {
			return err
		}
		jr2, err := jowner.Encrypt(r2)
		if err != nil {
			return err
		}
		jq := sectopk.JoinQuery{
			JoinAttr1: 0, JoinAttr2: 0,
			ScoreAttr1: 1, ScoreAttr2: 2,
			Project1: []int{0}, Project2: []int{1},
			K: *k,
		}
		jtk, err := jowner.Token(jr1, jr2, jq)
		if err != nil {
			return err
		}
		if err := jowner.Keys().Save(filepath.Join(*dir, joinKeysFile)); err != nil {
			return err
		}
		if err := jowner.Save(filepath.Join(*dir, joinOwnerFile)); err != nil {
			return err
		}
		if err := jr1.Save(filepath.Join(*dir, join1File)); err != nil {
			return err
		}
		if err := jr2.Save(filepath.Join(*dir, join2File)); err != nil {
			return err
		}
		if err := jtk.Save(filepath.Join(*dir, joinTokenFile)); err != nil {
			return err
		}
		fmt.Printf("encrypted join pair %s/%s (%d rows each)\n", r1.Name, r2.Name, n)
	}

	if err := owner.Keys().Save(filepath.Join(*dir, s2KeysFile)); err != nil {
		return err
	}
	if err := owner.Save(filepath.Join(*dir, ownerFile)); err != nil {
		return err
	}
	fmt.Printf("wrote owner artifacts for %s under %s\n", strings.Join(sortedKeys(workloads), ","), *dir)
	return nil
}

func sortedKeys(m map[string]bool) []string {
	order := []string{"topk", "join", "knn"}
	out := make([]string, 0, len(m))
	for _, k := range order {
		if m[k] {
			out = append(out, k)
		}
	}
	return out
}

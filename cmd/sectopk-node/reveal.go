package main

import (
	"flag"
	"fmt"
	"path/filepath"

	"repro/sectopk"
)

func runReveal(args []string) error {
	fs := flag.NewFlagSet("reveal", flag.ExitOnError)
	dir := fs.String("dir", ".", "artifact directory")
	workload := fs.String("workload", "topk", "workload: topk|join|knn")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *workload {
	case "topk":
		owner, err := sectopk.LoadOwner(filepath.Join(*dir, ownerFile))
		if err != nil {
			return err
		}
		er, err := sectopk.LoadEncryptedRelation(filepath.Join(*dir, relationFile))
		if err != nil {
			return err
		}
		res, err := sectopk.LoadEncryptedResult(filepath.Join(*dir, resultFile))
		if err != nil {
			return err
		}
		revealed, err := owner.Reveal(er, res)
		if err != nil {
			return err
		}
		for rank, item := range revealed {
			fmt.Printf("top-%d: object %d, score %d\n", rank+1, item.Object, item.Score)
		}
	case "join":
		jowner, err := sectopk.LoadJoinOwner(filepath.Join(*dir, joinOwnerFile))
		if err != nil {
			return err
		}
		res, err := sectopk.LoadEncryptedJoinResult(filepath.Join(*dir, joinResultFile))
		if err != nil {
			return err
		}
		revealed, err := jowner.Reveal(res)
		if err != nil {
			return err
		}
		for rank, tup := range revealed {
			fmt.Printf("join-%d: score %d, attrs %v\n", rank+1, tup.Score, tup.Attrs)
		}
	case "knn":
		owner, err := sectopk.LoadOwner(filepath.Join(*dir, ownerFile))
		if err != nil {
			return err
		}
		ker, err := sectopk.LoadEncryptedKNNRelation(filepath.Join(*dir, knnFile))
		if err != nil {
			return err
		}
		res, err := sectopk.LoadEncryptedKNNResult(filepath.Join(*dir, knnResultFile))
		if err != nil {
			return err
		}
		revealed, err := owner.RevealKNN(ker, res)
		if err != nil {
			return err
		}
		for rank, item := range revealed {
			fmt.Printf("nn-%d: object %d, distance %d\n", rank+1, item.Object, item.Distance)
		}
	default:
		return fmt.Errorf("unknown workload %q (want topk, join, or knn)", *workload)
	}
	return nil
}

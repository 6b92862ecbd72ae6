package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"path/filepath"

	"repro/sectopk"
)

func runS2(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("s2", flag.ExitOnError)
	dir := fs.String("dir", ".", "artifact directory")
	listen := fs.String("listen", "127.0.0.1:9042", "listen address")
	relation := fs.String("relation", "default", "relation ID to register the owner keys under")
	joinRelation := fs.String("join-relation", "", "also register the join keys under this relation ID")
	knnRelation := fs.String("knn-relation", "", "also register the owner keys under this relation ID for kNN queries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	keys, err := sectopk.LoadKeys(filepath.Join(*dir, s2KeysFile))
	if err != nil {
		return err
	}
	cc := sectopk.NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register(*relation, keys); err != nil {
		return err
	}
	if *knnRelation != "" {
		if err := cc.Register(*knnRelation, keys); err != nil {
			return err
		}
	}
	if *joinRelation != "" {
		jkeys, err := sectopk.LoadKeys(filepath.Join(*dir, joinKeysFile))
		if err != nil {
			return err
		}
		if err := cc.Register(*joinRelation, jkeys); err != nil {
			return err
		}
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("crypto cloud S2 serving relations %v on %s (ctrl-c to stop)\n", cc.Relations(), l.Addr())
	if err := cc.Serve(ctx, l); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

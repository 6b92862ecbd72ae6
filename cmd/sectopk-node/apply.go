package main

import (
	"context"
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"repro/sectopk"
)

// runApply is the owner's live-update loop: load the mutable mirror,
// turn the flags into encrypted deltas (deletes, then updates, then
// inserts — three independent mutations in a fixed order), ship each to
// the data cloud over the client wire, adopt the epochs the Applies
// report, and persist the advanced owner state. The mirror is re-saved
// after every landed delta, so a failure mid-sequence leaves the disk
// state consistent with the hosting (the unshipped mutations are simply
// not applied anywhere).
func runApply(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	dir := fs.String("dir", ".", "artifact directory")
	connect := fs.String("connect", "127.0.0.1:9142", "data cloud client-listen address")
	relation := fs.String("relation", "default", "relation ID")
	insertFlag := fs.String("insert", "", "rows to insert: semicolon-separated comma-lists, e.g. '3,5,7;2,9,1'")
	deleteFlag := fs.String("delete", "", "global row ids to delete: comma list, e.g. '0,4'")
	updateFlag := fs.String("update", "", "rows to update: semicolon-separated id=comma-list, e.g. '2=8,8,8'")
	compact := fs.Bool("compact", false, "fold accumulated tombstones after the mutations land")
	wait := fs.Duration("wait", 15*time.Second, "how long to retry dialing the server")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *insertFlag == "" && *deleteFlag == "" && *updateFlag == "" && !*compact {
		return fmt.Errorf("nothing to do: give -insert, -delete, -update, or -compact")
	}
	owner, err := sectopk.LoadOwner(filepath.Join(*dir, ownerFile))
	if err != nil {
		return err
	}
	mr, err := owner.LoadMutable(filepath.Join(*dir, mirrorFile))
	if err != nil {
		return err
	}
	client, err := dialClient(ctx, *connect, *wait)
	if err != nil {
		return err
	}
	defer client.Close()

	mirrorPath := filepath.Join(*dir, mirrorFile)
	ship := func(d *sectopk.Delta, what string) error {
		epoch, err := client.Apply(ctx, *relation, d)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if err := mr.Adopt(epoch); err != nil {
			return err
		}
		ins, del := d.Rows()
		fmt.Printf("%s applied: +%d/-%d rows -> epoch %d\n", what, ins, del, epoch)
		return mr.Save(mirrorPath)
	}
	if *deleteFlag != "" {
		ids, err := parseInts(*deleteFlag)
		if err != nil {
			return err
		}
		d, err := mr.DeleteRows(ids)
		if err != nil {
			return err
		}
		if err := ship(d, "delete"); err != nil {
			return err
		}
	}
	if *updateFlag != "" {
		updates, err := parseUpdates(*updateFlag)
		if err != nil {
			return err
		}
		d, err := mr.UpdateScores(updates)
		if err != nil {
			return err
		}
		if err := ship(d, "update"); err != nil {
			return err
		}
	}
	if *insertFlag != "" {
		rows, err := parseRows(*insertFlag)
		if err != nil {
			return err
		}
		d, err := mr.InsertRows(rows)
		if err != nil {
			return err
		}
		if err := ship(d, "insert"); err != nil {
			return err
		}
	}
	if *compact {
		epoch, err := client.Compact(ctx, *relation)
		if err != nil {
			return err
		}
		if err := mr.Adopt(epoch); err != nil {
			return err
		}
		fmt.Printf("compacted -> epoch %d\n", epoch)
		if err := mr.Save(mirrorPath); err != nil {
			return err
		}
	}
	// Refresh the hosted bundle at the new epoch: reveal sizes its
	// revealer off this file, which must cover the grown id space.
	er, err := mr.Encrypted()
	if err != nil {
		return err
	}
	if err := er.Save(filepath.Join(*dir, relationFile)); err != nil {
		return err
	}
	fmt.Printf("relation %s now at epoch %d: %d live rows, %d awaiting compaction\n",
		*relation, mr.Epoch(), mr.LiveRows(), mr.DeadRows())
	return nil
}

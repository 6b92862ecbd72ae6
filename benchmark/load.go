package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/sectopk"
)

// Request classes.
const (
	classTopK = "topk"
	classKNN  = "knn"
	classJoin = "join"
)

const (
	// warmupPerClient is the number of requests each reader issues before
	// the window opens, so caches and nonce pools are filled.
	warmupPerClient = 3
	// requestTimeout bounds one request; a request that exceeds it fails.
	requestTimeout = 60 * time.Second

	writerPeriod = 500 * time.Millisecond
	// compactEvery makes every 16th delta end with a compaction.
	compactEvery = 16
)

// readSample is one completed read request. The answer is kept and
// revealed only after the window closes, so verification takes no cores
// from the measured system.
type readSample struct {
	class string
	ms    float64
	ans   *sectopk.Answer
	err   error
}

// readerLog is one free-running closed-loop client's record (the traced
// run's fleet phase).
type readerLog struct {
	samples []readSample
}

// roundLog is one round of the timed window: every reader issued one
// request of the same class at once, and the round ended when the last of
// them completed.
type roundLog struct {
	wallMs  float64      // first send to last completion
	samples []readSample // one per reader
}

// writeSample is one mutation the open-loop writer issued.
type writeSample struct {
	lateMs  float64 // how long after its due time the writer started it
	applyMs float64 // due time to Client.Apply returned
	err     error
}

// windowResult is everything one timed window observed.
type windowResult struct {
	start, end time.Time
	// rounds[j] ran between calib[j] and calib[j+1].
	rounds []roundLog
	calib  []calibration
	writes []writeSample
	// epochRows is the plaintext the reader's answer must match, by the
	// epoch the answer reports.
	epochRows map[uint64][][]int64
	cpuMs     float64         // process CPU over the window, the calibrations' own taken out
	s2        sectopk.Traffic // S1-S2 traffic delta over the window
}

// runReader is one free-running closed-loop client: the next request is
// sent only after the previous one completed. The deadline is checked at
// cycle boundaries, so every client completes whole cycles and the class
// mix is exactly even.
func (d *deployment) runReader(ctx context.Context, c *sectopk.Client, deadline time.Time, log *readerLog) {
	for time.Now().Before(deadline) {
		for _, cr := range d.requests {
			log.samples = append(log.samples, d.issue(ctx, c, cr))
		}
	}
}

// runRound has every reader issue one request of the class at once and
// returns when the last of them completed.
func (d *deployment) runRound(ctx context.Context, cr classRequest) roundLog {
	r := roundLog{samples: make([]readSample, len(d.readers))}
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range d.readers {
		wg.Add(1)
		go func(i int, c *sectopk.Client) {
			defer wg.Done()
			r.samples[i] = d.issue(ctx, c, cr)
		}(i, c)
	}
	wg.Wait()
	r.wallMs = msSince(t0)
	return r
}

// issue sends one request and times it.
func (d *deployment) issue(ctx context.Context, c *sectopk.Client, cr classRequest) readSample {
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	t0 := time.Now()
	ans, err := c.Execute(rctx, cr.req)
	return readSample{class: cr.class, ms: msSince(t0), ans: ans, err: err}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// warmup issues warmupPerClient requests per reader (whole cycles on
// mixed-fleet) and fails on the first error: a system that cannot answer
// before the window opens has nothing to measure.
func (d *deployment) warmup(ctx context.Context) error {
	errs := make(chan error, len(d.readers))
	for _, c := range d.readers {
		go func(c *sectopk.Client) {
			for n := 0; n < warmupPerClient; {
				for _, cr := range d.requests {
					if s := d.issue(ctx, c, cr); s.err != nil {
						errs <- fmt.Errorf("warm-up %s request: %w", cr.class, s.err)
						return
					}
					n++
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for range d.readers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runWriter is the open-loop writer: delta i is due at start + i*period
// whether or not the previous one has finished, and its latency is timed
// from the due time, so a stall shows up in every delta queued behind it.
func (d *deployment) runWriter(ctx context.Context, start, deadline time.Time, res *windowResult) {
	rows := cloneRows(d.in.topk.Rows)
	res.epochRows = map[uint64][][]int64{d.mutable.Epoch(): cloneRows(rows)}
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * writerPeriod)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		s := writeSample{lateMs: msSince(due)}
		a, b := d.in.nextSwap(i, rows)
		rows[a], rows[b] = rows[b], rows[a]
		epoch, err := d.applySwap(ctx, a, b, rows)
		s.applyMs = msSince(due)
		if err == nil {
			res.epochRows[epoch] = cloneRows(rows)
			if i%compactEvery == compactEvery-1 {
				epoch, err = d.compact(ctx)
				if err == nil {
					res.epochRows[epoch] = cloneRows(rows)
				}
			}
		}
		s.err = err
		res.writes = append(res.writes, s)
		if err != nil {
			// The owner's shadow and the hosted relation may have diverged;
			// later deltas would only repeat the failure.
			return
		}
	}
}

// applySwap ships one UpdateScores delta giving rows a and b their new
// (already swapped) vectors, and adopts the epoch it produced.
func (d *deployment) applySwap(ctx context.Context, a, b int, rows [][]int64) (uint64, error) {
	delta, err := d.mutable.UpdateScores(map[int][]int64{a: rows[a], b: rows[b]})
	if err != nil {
		return 0, fmt.Errorf("building delta: %w", err)
	}
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	epoch, err := d.writer.Apply(rctx, relTopK, delta)
	if err != nil {
		return 0, fmt.Errorf("apply: %w", err)
	}
	return epoch, d.mutable.Adopt(epoch)
}

func (d *deployment) compact(ctx context.Context) (uint64, error) {
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	epoch, err := d.writer.Compact(rctx, relTopK)
	if err != nil {
		return 0, fmt.Errorf("compact: %w", err)
	}
	return epoch, d.mutable.Adopt(epoch)
}

// runWindow opens the timed window. The readers stay closed-loop clients,
// but in step: a round is one request per reader, all of one class, and
// the next round starts when the last reader is done and the yardstick has
// been read (see calib.go; its settling pause is the readers' think time),
// so every request is timed between two calibrations a fraction of a
// second apart. Classes rotate round by round
// and the deadline is checked at cycle boundaries, so the class mix is
// exactly even. The writer, where there is one, keeps its own schedule
// beside the rounds. CPU and S2 traffic are read at both ends, with no
// request in flight at either.
func (d *deployment) runWindow(ctx context.Context, window time.Duration) *windowResult {
	res := &windowResult{}
	cal := newCalibrator()
	cpu0 := processCPU()
	s20 := d.dc.Traffic()
	res.start = time.Now()
	deadline := res.start.Add(window)
	var writer sync.WaitGroup
	if d.spec.mutate {
		writer.Add(1)
		go func() {
			defer writer.Done()
			d.runWriter(ctx, res.start, deadline, res)
		}()
	}
	res.calib = append(res.calib, cal.read())
	for time.Now().Before(deadline) {
		for _, cr := range d.requests {
			res.rounds = append(res.rounds, d.runRound(ctx, cr))
			res.calib = append(res.calib, cal.read())
		}
	}
	writer.Wait()
	res.end = time.Now()
	s21 := d.dc.Traffic()
	res.cpuMs = float64(processCPU()-cpu0) / float64(time.Millisecond)
	for _, c := range res.calib {
		res.cpuMs -= c.cpuMs * float64(runtime.GOMAXPROCS(0))
	}
	res.s2 = sectopk.Traffic{Rounds: s21.Rounds - s20.Rounds, Bytes: s21.Bytes - s20.Bytes}
	return res
}

// processCPU is the process's user+system CPU time so far: all parties'
// compute, independent of how long anything waited.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// verify reveals one read sample's answer and checks it against the
// plaintext oracle (of the epoch the answer reports, on
// mutate-beside-read).
func (d *deployment) verify(s readSample, epochRows map[uint64][][]int64) error {
	if s.err != nil {
		return s.err
	}
	switch s.class {
	case classTopK:
		if s.ans.TopK == nil {
			return fmt.Errorf("top-k request answered with a %s answer", s.ans.Workload())
		}
		rows := d.in.topk.Rows
		if d.spec.mutate {
			var ok bool
			if rows, ok = epochRows[s.ans.Traffic.Epoch]; !ok {
				return fmt.Errorf("answer reports epoch %d, which the writer never produced", s.ans.Traffic.Epoch)
			}
		}
		got, err := d.owner.Reveal(d.er, s.ans.TopK)
		if err != nil {
			return fmt.Errorf("reveal: %w", err)
		}
		return checkTopK(got, rows, d.query)
	case classKNN:
		if s.ans.KNN == nil {
			return fmt.Errorf("kNN request answered with a %s answer", s.ans.Workload())
		}
		got, err := d.owner.RevealKNN(d.ker, s.ans.KNN)
		if err != nil {
			return fmt.Errorf("reveal kNN: %w", err)
		}
		return checkKNN(got, d.in.knn, d.in.knnQuery)
	case classJoin:
		if s.ans.Join == nil {
			return fmt.Errorf("join request answered with a %s answer", s.ans.Workload())
		}
		got, err := d.jowner.Reveal(s.ans.Join)
		if err != nil {
			return fmt.Errorf("reveal join: %w", err)
		}
		return checkJoin(got, d.in.join1, d.in.join2, d.in.joinQuery)
	}
	return fmt.Errorf("unknown request class %q", s.class)
}

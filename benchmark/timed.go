package main

import (
	"context"
	"fmt"
	"syscall"
	"time"
)

// setupRepeats is how many times a run performs the whole set-up; setup_s
// is the median, and the last deployment built serves the window.
const setupRepeats = 7

// atNominal restates a measured duration at nominal machine speed (see
// calib.go). injected is the part of it spent in the delay proxy's sleeps,
// which pass in wall-clock time whatever the machine's speed.
func atNominal(measured, injected, speed float64) float64 {
	return (measured-injected)/speed + injected
}

// runTimed is the untraced run of one workload: set-up, warm-up, the
// timed window, then verification of every answer against the oracle.
// Every timing it reports is restated at nominal machine speed; the
// figures as measured are kept beside them as raw_* information.
func runTimed(ctx context.Context, bench *benchSpec, spec workloadSpec, seed int64, seconds int) (*runRecord, error) {
	rec := newRecord(bench, spec, false, seed, seconds)
	in := newInputs(seed)

	var dep *deployment
	var setups, rawSetups []float64
	cal := newCalibrator()
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			dep.close()
		}
		before := cal.read()
		t0 := time.Now()
		var err error
		if dep, err = newDeployment(ctx, spec, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, s)
		setups = append(setups, s/meanReading(before, cal.read()).wall())
	}
	defer dep.close()

	t0 := time.Now()
	if err := dep.warmup(ctx); err != nil {
		return nil, err
	}
	rec.info("warmup_s", time.Since(t0).Seconds(), "s", 0)

	res := dep.runWindow(ctx, time.Duration(seconds)*time.Second)
	rec.info("window_s", res.end.Sub(res.start).Seconds(), "s", 0)
	windowSpeed := meanReading(res.calib...)
	rec.info("machine_speed", windowSpeed.wall(), "ratio", len(res.calib))
	rec.info("machine_speed_cpu", windowSpeed.cpu(), "ratio", len(res.calib))

	// Each S1-S2 round crosses the delay proxy once in each direction; the
	// solo workloads' rounds per op are exact, so this is each request's own
	// share and not an average.
	var injectedMs float64
	if n := len(res.rounds) * len(dep.readers); n > 0 {
		injectedMs = float64(res.s2.Rounds) / float64(n) * 2 * float64(spec.wanDelay) / float64(time.Millisecond)
	}
	// Verification happens here, after the window, so revealing answers
	// takes no cores from the measured system.
	ops := 0
	var servingMs, rawServingMs float64
	raw, restated := map[string][]float64{}, map[string][]float64{}
	for j, round := range res.rounds {
		speed := meanReading(res.calib[j], res.calib[j+1]).wall()
		rawServingMs += round.wallMs
		servingMs += atNominal(round.wallMs, injectedMs, speed)
		for _, s := range round.samples {
			rec.Attempted++
			if err := dep.verify(s, res.epochRows); err != nil {
				rec.fail(fmt.Errorf("%s request: %w", s.class, err))
				continue
			}
			ops++
			raw[s.class] = append(raw[s.class], s.ms)
			restated[s.class] = append(restated[s.class], atNominal(s.ms, injectedMs, speed))
		}
	}
	var applyMs, lateMs []float64
	for _, w := range res.writes {
		rec.Attempted++
		if w.err != nil {
			rec.fail(fmt.Errorf("mutation: %w", w.err))
			continue
		}
		applyMs = append(applyMs, w.applyMs)
		lateMs = append(lateMs, w.lateMs)
	}
	if ops == 0 {
		rec.finish()
		return rec, nil
	}

	topk := restated[classTopK]
	rec.set("setup_s", median(setups), len(setups))
	// The rate is over the time the readers were being served: the rounds,
	// not the calibrations between them.
	rec.set("qps", 1000*float64(ops)/servingMs, ops)
	rec.set("query_p50_ms", median(topk), len(topk))
	rec.set("query_p90_ms", percentile(topk, 90), len(topk))
	rec.set("s2_bytes_per_op", float64(res.s2.Bytes)/float64(ops), 0)
	rec.set("s2_rounds_per_op", float64(res.s2.Rounds)/float64(ops), 0)
	rec.set("cpu_ms_per_op", res.cpuMs/float64(ops)/windowSpeed.cpu(), 0)
	rec.set("er_bytes_per_row", dep.erBytesPerRow(), 0)

	rec.info("raw_setup_s", median(rawSetups), "s", len(rawSetups))
	rec.info("raw_qps", 1000*float64(ops)/rawServingMs, "1/s", ops)
	rec.info("raw_query_p50_ms", median(raw[classTopK]), "ms", len(topk))
	rec.info("raw_query_p90_ms", percentile(raw[classTopK], 90), "ms", len(topk))
	rec.info("raw_cpu_ms_per_op", res.cpuMs/float64(ops), "ms", 0)
	for _, class := range []string{classKNN, classJoin} {
		if ms := restated[class]; len(ms) > 0 {
			rec.info(class+"_p50_ms", median(ms), "ms", len(ms))
			rec.info("raw_"+class+"_p50_ms", median(raw[class]), "ms", len(ms))
		}
	}
	if len(applyMs) > 0 {
		rec.info("raw_apply_p50_ms", median(applyMs), "ms", len(applyMs))
		rec.info("raw_writer_late_p50_ms", median(lateMs), "ms", len(lateMs))
	}
	rec.info("peak_rss_mb", peakRSSMB(), "MB", 0)
	rec.finish()
	return rec, nil
}

// peakRSSMB is the process's high-water resident set, all parties
// together.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

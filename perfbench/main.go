// Command perfbench measures how fast the ESM simulator runs on the host:
// one named workload, built from a seed, run for a given time, with every
// output checked. It prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separate traced run, as one JSON object on the
// last line of standard output. README.md describes the workloads, the
// metrics and the checks.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload fileserver-paper --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is what a measured or traced run hands back to run.
type runResult struct {
	metrics   map[string]metric
	counts    map[string]metric
	attempted int64
	// bad lists every failed correctness check.
	bad []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 45, fmt.Sprintf("how long to run measured rounds; every run completes at least %d", minRounds))
	traced := fs.Int("trace", 0, "1 runs the workload once with per-layer timing and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1, --trace 0 or 1 and no positional arguments")
		return 2
	}
	b, err := newBench(*name, *seed, fullSizes())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	steal0, stealOK := hostSteal()
	start := time.Now()
	var res runResult
	if *traced == 1 {
		res, err = tracedRun(b, stdout)
	} else {
		res, err = measuredRun(b, time.Duration(*seconds)*time.Second, stdout)
	}
	b.release()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", b.name, b.seed, err)
		return 1
	}
	wall := time.Since(start)
	if steal1, ok := hostSteal(); ok && stealOK {
		fmt.Fprintf(stdout, "host steal %.2f s during %.1f s of wall time on %d CPUs\n",
			(steal1 - steal0).Seconds(), wall.Seconds(), runtime.NumCPU())
	} else {
		fmt.Fprintln(stdout, "host steal unavailable (no /proc/stat)")
	}
	for _, k := range slices.Sorted(maps.Keys(res.counts)) {
		fmt.Fprintf(stdout, "simulated %s = %v %s\n", k, res.counts[k].Value, res.counts[k].Unit)
	}
	for _, msg := range res.bad {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}
	line, err := json.Marshal(report{
		Correct:   len(res.bad) == 0,
		Attempted: res.attempted,
		Metrics:   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.bad) > 0 {
		return 1
	}
	return 0
}

// minRounds is the fewest measured rounds a run makes, so that its
// figures average over that many even where a single round is long
// (about 15 s on fileserver-paper) and the host slows one of them.
const minRounds = 3

// measuredRun sets the workload up several times, makes the reference
// pass, then runs whole rounds: at least minRounds, and more while the
// next one would end within the run length. The time and allocation
// metrics are taken over all rounds together, set-up time as the median
// over the set-ups.
func measuredRun(b *bench, length time.Duration, log io.Writer) (runResult, error) {
	var res runResult
	var setups []float64
	for i := 0; i < b.setupRepeats(); i++ {
		b.reset()
		runtime.GC()
		t := time.Now()
		if err := b.setup(); err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	t := time.Now()
	ref, err := referencePass(b.w)
	if err != nil {
		return res, fmt.Errorf("reference pass: %w", err)
	}
	if b.name == fileServerPaper {
		res.bad = append(res.bad, checkMix(ref, b.patternMix())...)
	}
	fmt.Fprintf(log, "setup: median %.4f s of %d; reference pass and checks %.1f s\n", median(setups), len(setups), time.Since(t).Seconds())

	var total phase
	for round := 1; ; round++ {
		if err := b.prepareRound(); err != nil {
			return res, err
		}
		runtime.GC()
		s := sampleProc()
		o, err := b.round()
		if err != nil {
			return res, fmt.Errorf("round %d: %w", round, err)
		}
		ph := since(s)
		fmt.Fprintf(log, "round %d: %d records in %.3f s wall, %.3f s CPU, host steal %.2f s\n",
			round, o.records(), ph.wall.Seconds(), ph.cpu.Seconds(), ph.steal.Seconds())
		total.wall += ph.wall
		total.cpu += ph.cpu
		total.allocs += ph.allocs
		total.bytes += ph.bytes
		res.attempted += o.records()

		res.bad = append(res.bad, checkOutcome(b.name, ref, o)...)
		counts := simCounts(b.name, ref, o)
		if res.counts == nil {
			res.counts = counts
		} else {
			res.bad = append(res.bad, checkRepeat(round, res.counts, counts)...)
		}
		if round >= minRounds && total.wall+ph.wall > length {
			break
		}
	}
	n := float64(res.attempted)
	res.metrics = map[string]metric{
		"setup_s":                {median(setups), "s"},
		"records_per_s":          {n / total.wall.Seconds(), "1/s"},
		"cpu_ns_per_record":      {float64(total.cpu.Nanoseconds()) / n, "ns"},
		"allocs_per_record":      {float64(total.allocs) / n, "count"},
		"alloc_bytes_per_record": {float64(total.bytes) / n, "B"},
		"peak_rss_mb":            {peakRSSMB(), "MiB"},
	}
	return res, nil
}

// tracedRun generates the workload once, makes the reference pass, then
// the layer and scheduler passes, and checks their outputs like a
// measured round's.
func tracedRun(b *bench, log io.Writer) (runResult, error) {
	var res runResult
	w, err := b.generate()
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	b.w = w
	ref, err := referencePass(w)
	if err != nil {
		return res, fmt.Errorf("reference pass: %w", err)
	}
	if b.name == fileServerPaper {
		res.bad = append(res.bad, checkMix(ref, b.patternMix())...)
	}
	tm := calibrateTimer()
	fmt.Fprintln(log, tm)
	lp, err := runLayerPass(w, tm)
	if err != nil {
		return res, fmt.Errorf("layer pass: %w", err)
	}
	sp, err := runSchedulerPass(w, b.policies(), tm)
	if err != nil {
		return res, fmt.Errorf("scheduler pass: %w", err)
	}
	o := outcome{replays: sp.replays, live: &lp.live}
	res.bad = append(res.bad, checkOutcome(b.name, ref, o)...)
	res.counts = simCounts(b.name, ref, o)
	res.metrics = tracedMetrics(lp, sp, tm)
	maps.Copy(res.metrics, res.counts)
	// Records submitted: every policy's replay, the live feed and the
	// no-policy drive.
	res.attempted = o.records() + lp.records
	return res, nil
}

// checkRepeat checks that a later round reproduced round 1's exact
// counts.
func checkRepeat(round int, first, counts map[string]metric) []string {
	if !maps.Equal(exactCounts(first), exactCounts(counts)) {
		return []string{fmt.Sprintf("round %d's simulated counts differ from round 1's", round)}
	}
	return nil
}

// exactCounts leaves out the counts derived from enclosure energy. ESM's
// energy can differ in its last digits between identical runs, because
// the array destages the items that leave the write-delay set in map
// order; every other count repeats exactly.
func exactCounts(m map[string]metric) map[string]metric {
	out := maps.Clone(m)
	delete(out, "core.esm_saving_pct")
	delete(out, "powermodel.span_overrun_w")
	return out
}

// simCounts are the simulated results, which a change that only speeds
// up the simulator must leave identical. The operational counts come
// from the workload's ESM run: the live array on oltp-live, the offline
// replay otherwise. The comparison counts need the four-policy replay,
// the telemetry counts the live array; each is left out where its run
// is missing.
func simCounts(name string, ref reference, o outcome) map[string]metric {
	m := map[string]metric{}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	if l := o.live; name == oltpLive && l != nil {
		m["storage.cache_hit_ratio"] = metric{ratio(l.CacheHits, ref.reads), "ratio"}
		m["storage.physical_ios_per_record"] = metric{ratio(l.PhysicalIOs, l.Fed), "ratio"}
		m["storage.migrated_gb"] = metric{float64(l.MigratedBytes) / 1e9, "GB"}
		m["powermodel.spin_ups"] = metric{float64(l.SpinUps), "count"}
		m["core.determinations"] = metric{float64(l.Determinations), "count"}
	} else if esm := o.replay("esm"); esm != nil {
		m["storage.cache_hit_ratio"] = metric{ratio(esm.Storage.CacheHits, esm.Reads), "ratio"}
		m["storage.physical_ios_per_record"] = metric{ratio(esm.Storage.PhysicalReads+esm.Storage.PhysicalWrites, esm.Records), "ratio"}
		m["storage.migrated_gb"] = metric{float64(esm.Storage.MigratedBytes) / 1e9, "GB"}
		m["powermodel.spin_ups"] = metric{float64(esm.SpinUps), "count"}
		m["core.determinations"] = metric{float64(esm.Determinations), "count"}
	}
	if esm := o.replay("esm"); esm != nil {
		m["powermodel.span_overrun_w"] = metric{esm.spanOverrunW(), "W"}
		if none := o.replay("none"); none != nil {
			m["core.esm_saving_pct"] = metric{(1 - esm.AvgEnclosureW/none.AvgEnclosureW) * 100, "%"}
		}
	}
	if pdc := o.replay("pdc"); pdc != nil {
		m["pdc.migrated_gb"] = metric{float64(pdc.Storage.MigratedBytes) / 1e9, "GB"}
	}
	if ddr := o.replay("ddr"); ddr != nil {
		m["ddr.determinations"] = metric{float64(ddr.Determinations), "count"}
	}
	if l := o.live; l != nil {
		m["obs.series_samples"] = metric{float64(l.SeriesSamples), "count"}
		m["obs.provenance_offered"] = metric{float64(l.ProvenanceOffered), "count"}
	}
	return m
}

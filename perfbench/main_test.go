package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// reducedRun sets up one workload at reduced scale and runs one measured
// round of it.
func reducedRun(t *testing.T, name string, seed int64) (*bench, reference, outcome) {
	t.Helper()
	b, err := newBench(name, seed, reducedSizes())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.release)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	ref, err := referencePass(b.w)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.prepareRound(); err != nil {
		t.Fatal(err)
	}
	o, err := b.round()
	if err != nil {
		t.Fatal(err)
	}
	return b, ref, o
}

// TestWorkloadsPassEveryCheck runs each workload at reduced scale
// through all its checks, measured and traced, on two seeds, and checks
// that the traced run reproduces the measured run's simulated counts.
func TestWorkloadsPassEveryCheck(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []int64{1, 42} {
			b, ref, o := reducedRun(t, name, seed)
			if ref.records == 0 {
				t.Fatalf("%s seed %d: empty trace", name, seed)
			}
			bad := checkOutcome(name, ref, o)
			if name == fileServerPaper {
				bad = append(bad, checkMix(ref, b.patternMix())...)
			}
			for _, msg := range bad {
				t.Errorf("%s seed %d: %s", name, seed, msg)
			}

			var log bytes.Buffer
			res, err := tracedRun(b, &log)
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", name, seed, err)
			}
			for _, msg := range res.bad {
				t.Errorf("%s seed %d traced: %s", name, seed, msg)
			}
			measured := exactCounts(simCounts(name, ref, o))
			for k, v := range measured {
				if res.counts[k] != v {
					t.Errorf("%s seed %d: simulated %s is %v traced, %v measured", name, seed, k, res.counts[k].Value, v.Value)
				}
			}
		}
	}
}

// spec is the part of BENCHMARK.json the tests compare against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameMetrics reports the metrics missing from got or reported with
// another unit, and those got has beyond want.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	names := map[string]bool{}
	for _, w := range want {
		names[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", what, w.Name, m.Unit, w.Unit)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if !names[k] {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, k)
		}
	}
}

// TestReportsMatchBenchmarkSpec runs each workload at reduced scale in
// both modes and checks the printed metrics against BENCHMARK.json.
func TestReportsMatchBenchmarkSpec(t *testing.T) {
	s := loadSpec(t)
	// BENCHMARK.json lists the workloads that fit its time budget;
	// every one it lists must be one the benchmark runs.
	for _, w := range s.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json lists workload %s; the benchmark runs %v", w.Name, workloadNames)
		}
	}
	for _, name := range workloadNames {
		b, err := newBench(name, 3, reducedSizes())
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		res, err := measuredRun(b, time.Millisecond, &log)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.bad) > 0 || res.attempted <= 0 {
			t.Errorf("%s: measured run failed checks %v or attempted %d", name, res.bad, res.attempted)
		}
		sameMetrics(t, name+" measured", res.metrics, s.EndToEnd)
		for k, m := range res.metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive value", name, k, m.Value)
			}
		}
		res, err = tracedRun(b, &log)
		b.release()
		if err != nil {
			t.Fatal(err)
		}
		sameMetrics(t, name+" traced", res.metrics, s.PerLayer)
	}
}

// TestRunRejectsBadArguments checks the command's argument errors.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", oltpLive, "--trace", "2"},
		{"--workload", oltpLive, "--seconds", "0"},
		{"--workload", oltpLive, "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want a failure and no result", args, code, out.String())
		}
	}
}

// corruption is one deliberate defect in a good outcome and the check
// message that must report it.
type corruption struct {
	name  string
	apply func(ref *reference, o *outcome)
	want  string
}

// TestChecksCatchCorruptedResults shows every check failing on a
// deliberately corrupted result.
func TestChecksCatchCorruptedResults(t *testing.T) {
	b, ref, good := reducedRun(t, fileServerPaper, 5)
	if bad := checkOutcome(fileServerPaper, ref, good); len(bad) > 0 {
		t.Fatalf("uncorrupted outcome fails: %v", bad)
	}
	mix := b.patternMix()
	if bad := checkMix(ref, mix); len(bad) > 0 {
		t.Fatalf("uncorrupted mix fails: %v", bad)
	}
	_, liveRef, liveGood := reducedRun(t, oltpLive, 5)
	if bad := checkOutcome(oltpLive, liveRef, liveGood); len(bad) > 0 {
		t.Fatalf("uncorrupted live outcome fails: %v", bad)
	}

	rep := func(o *outcome, policy string) *replayOutcome {
		r := o.replay(policy)
		if r == nil {
			t.Fatalf("no %s replay", policy)
		}
		return r
	}
	cases := []corruption{
		{"record dropped", func(_ *reference, o *outcome) { rep(o, "ddr").Records-- }, "ddr: replay completed"},
		{"read lost", func(_ *reference, o *outcome) { rep(o, "esm").Reads-- }, "esm: replay completed"},
		{"reference miscounted", func(ref *reference, _ *outcome) { ref.records++ }, "the trace has"},
		{"controller draw", func(_ *reference, o *outcome) { rep(o, "pdc").AvgTotalW += 1 }, "pdc: total minus enclosure power"},
		{"power above spin-up bound", func(_ *reference, o *outcome) {
			r := rep(o, "esm")
			r.AvgEnclosureW = float64(r.Enclosures)*spinUpW + 1
			r.AvgTotalW = r.AvgEnclosureW + controllerW
		}, "esm: enclosure power"},
		{"power below off bound", func(_ *reference, o *outcome) {
			r := rep(o, "ddr")
			r.AvgEnclosureW = float64(r.Enclosures)*offW - 1
			r.AvgTotalW = r.AvgEnclosureW + controllerW
		}, "ddr: enclosure power"},
		{"none spins up", func(_ *reference, o *outcome) { rep(o, "none").SpinUps = 1 }, "none: 1 spin-ups"},
		{"none migrates", func(_ *reference, o *outcome) { rep(o, "none").Storage.Migrations = 1 }, "none: 0 spin-ups, 1 migrations"},
		{"none loses a physical read", func(_ *reference, o *outcome) { rep(o, "none").Storage.PhysicalReads-- }, "none: physical reads+writes+cache hits"},
		{"none residency off", func(_ *reference, o *outcome) { rep(o, "none").StateMix[0].Idle += 1e-3 }, "none: enclosure power"},
		{"esm and none energy swapped", func(_ *reference, o *outcome) {
			none, esm := rep(o, "none"), rep(o, "esm")
			none.AvgEnclosureW, esm.AvgEnclosureW = esm.AvgEnclosureW, none.AvgEnclosureW
			none.AvgTotalW, esm.AvgTotalW = esm.AvgTotalW, none.AvgTotalW
		}, "esm draws"},
		{"pdc migrates too little", func(_ *reference, o *outcome) {
			rep(o, "pdc").Storage.MigratedBytes = 5 * rep(o, "esm").Storage.MigratedBytes
		}, "pdc migrated"},
		{"policy missing", func(_ *reference, o *outcome) { o.replays = o.replays[1:] }, "comparison lacks"},
	}
	for _, c := range cases {
		r := ref
		o := outcome{replays: cloneReplays(good.replays)}
		c.apply(&r, &o)
		expectFailure(t, c, checkOutcome(fileServerPaper, r, o))
	}

	mixCases := []corruption{
		{"naive class moved", func(ref *reference, _ *outcome) { ref.mix[1]--; ref.mix[2]++ }, "Fig. 6 mix"},
	}
	for _, c := range mixCases {
		r := ref
		c.apply(&r, nil)
		expectFailure(t, c, checkMix(r, mix))
	}

	liveCases := []corruption{
		{"record not fed", func(_ *reference, o *outcome) { o.live.Fed-- }, "live: encoded"},
		{"record not encoded", func(_ *reference, o *outcome) { o.live.Encoded-- }, "live: encoded"},
		{"array miscounts", func(_ *reference, o *outcome) { o.live.ArrayRecords++ }, "live: encoded"},
		{"energy off the flight recorder", func(_ *reference, o *outcome) { o.live.EnergyJ *= 1 + 1e-9 }, "flight recorder's final sample"},
		{"controller draw", func(_ *reference, o *outcome) { o.live.AvgEnclosureW -= 1 }, "live: total minus enclosure power"},
		{"power above spin-up bound", func(_ *reference, o *outcome) {
			l := o.live
			l.AvgEnclosureW = float64(l.Enclosures)*spinUpW + 1
			l.EnergyJ = (l.AvgEnclosureW + controllerW) * l.Span.Seconds()
			l.FlightFinalJ = l.EnergyJ
		}, "live: enclosure power"},
		{"alert fired", func(_ *reference, o *outcome) { o.live.AlertsFired = 1 }, "watchdog alerts fired"},
	}
	for _, c := range liveCases {
		r := liveRef
		l := *liveGood.live
		o := outcome{live: &l}
		c.apply(&r, &o)
		expectFailure(t, c, checkOutcome(oltpLive, r, o))
	}
}

// TestRepeatCheck shows the round-repeat check failing when a later
// round changes an exact count, and ignoring the energy-derived ones.
func TestRepeatCheck(t *testing.T) {
	_, ref, o := reducedRun(t, fileServerPaper, 5)
	first := simCounts(fileServerPaper, ref, o)
	if bad := checkRepeat(2, first, maps.Clone(first)); len(bad) > 0 {
		t.Errorf("identical rounds fail: %v", bad)
	}
	later := maps.Clone(first)
	later["powermodel.spin_ups"] = metric{later["powermodel.spin_ups"].Value + 1, "count"}
	expectFailure(t, corruption{name: "spin-up count changed", want: "round 2's simulated counts"}, checkRepeat(2, first, later))
	later = maps.Clone(first)
	later["core.esm_saving_pct"] = metric{later["core.esm_saving_pct"].Value * (1 + 1e-12), "%"}
	if bad := checkRepeat(2, first, later); len(bad) > 0 {
		t.Errorf("energy-derived count in the last digits fails: %v", bad)
	}
}

func cloneReplays(in []replayOutcome) []replayOutcome {
	out := slices.Clone(in)
	for i := range out {
		out[i].StateMix = slices.Clone(out[i].StateMix)
	}
	return out
}

func expectFailure(t *testing.T, c corruption, bad []string) {
	t.Helper()
	for _, msg := range bad {
		if strings.Contains(msg, c.want) {
			return
		}
	}
	t.Errorf("%s: checks reported %q, want a failure mentioning %q", c.name, bad, c.want)
}

// TestSpanOverrunIsMeasured pins the end-of-run destage fault: on the
// file server ESM's enclosures integrate energy past the span, so its
// average power exceeds the residency-implied power, while the
// no-power-saving baseline shows no gap.
func TestSpanOverrunIsMeasured(t *testing.T) {
	_, _, o := reducedRun(t, fileServerPaper, 42)
	none, esm := o.replay("none"), o.replay("esm")
	if gap := none.spanOverrunW(); gap > 1e-9*none.AvgEnclosureW || gap < -1e-9*none.AvgEnclosureW {
		t.Errorf("none: span overrun %g W, want 0", gap)
	}
	if gap := esm.spanOverrunW(); gap <= 1e-6*esm.AvgEnclosureW {
		t.Errorf("esm: span overrun %g W, want the destage spin-ups to show", gap)
	}
}

// TestMedian pins the median of odd and even counts.
func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

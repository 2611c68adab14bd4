package main

import (
	"fmt"
	"math"
	"time"

	"esm/internal/core"
	"esm/internal/fleet"
	"esm/internal/replay"
	"esm/internal/storage"
	"esm/internal/trace"
	"esm/internal/workload"
)

// Table II electrical parameters, written out here rather than read
// from the program, so the power checks compare against the paper.
const (
	activeW     = 250.0
	idleW       = 220.0
	offW        = 10.0
	spinUpW     = 738.0
	controllerW = 200.0
)

// outcome is what one round produced, reduced to the values the checks
// and the simulated counts read.
type outcome struct {
	replays []replayOutcome
	live    *liveOutcome
}

// records is the number of logical records the round completed, summed
// over policies.
func (o outcome) records() int64 {
	var n int64
	for _, r := range o.replays {
		n += r.Records
	}
	if o.live != nil {
		n += o.live.Fed
	}
	return n
}

// replay returns the outcome of the named policy, or nil.
func (o outcome) replay(policy string) *replayOutcome {
	for i := range o.replays {
		if o.replays[i].Policy == policy {
			return &o.replays[i]
		}
	}
	return nil
}

// replayOutcome is one offline replay's result.
type replayOutcome struct {
	Policy         string
	Records, Reads int64
	Enclosures     int
	AvgEnclosureW  float64
	AvgTotalW      float64
	SpinUps        int
	Determinations int64
	Storage        storage.Stats
	StateMix       []replay.StateResidency
}

func replayOutcomeOf(policy string, enclosures int, r *replay.Result) replayOutcome {
	return replayOutcome{
		Policy:         policy,
		Records:        r.Resp.Count(),
		Reads:          r.Resp.Reads(),
		Enclosures:     enclosures,
		AvgEnclosureW:  r.AvgEnclosureW,
		AvgTotalW:      r.AvgTotalW,
		SpinUps:        r.SpinUps,
		Determinations: r.Determinations,
		Storage:        r.Storage,
		StateMix:       r.StateMix,
	}
}

// residencyW is the enclosure power implied by the state residency:
// each enclosure's share of time in every state times its Table II draw.
func (r replayOutcome) residencyW() float64 {
	var w float64
	for _, m := range r.StateMix {
		w += m.Active*activeW + m.Idle*idleW + m.Off*offW + m.SpinUp*spinUpW
	}
	return w
}

// spanOverrunW is the gap between the average enclosure power (energy
// over the replay span) and the residency-implied power. It is nonzero
// when enclosures integrate energy past the span: the end-of-run
// destage spins up powered-off enclosures and charges the 15 s spin-up
// beyond Result.Span.
func (r replayOutcome) spanOverrunW() float64 { return r.AvgEnclosureW - r.residencyW() }

// liveOutcome is the live array's state after Finish.
type liveOutcome struct {
	// Fed counts the records the benchmark fed, Encoded those it wrote
	// to the stream codec, ArrayRecords those the array counted and
	// SeriesResp the responses in the final flight sample.
	Fed, Encoded, ArrayRecords, SeriesResp int64
	Span                                   time.Duration
	Enclosures                             int
	AvgEnclosureW, EnergyJ                 float64
	// FlightFinalJ is total_energy_j of the flight recorder's final
	// sample.
	FlightFinalJ      float64
	SpinUps           int
	Determinations    int64
	MigratedBytes     int64
	CacheHits         int64
	PhysicalIOs       int64
	SeriesSamples     int
	ProvenanceOffered int64
	AlertsFired       int64
}

// liveOutcomeOf reads a finished array.
func liveOutcomeOf(a *fleet.Array, enclosures int) liveOutcome {
	st := a.Status()
	ser := a.Series()
	last := func(col string) float64 {
		v := ser.Column(col)
		if len(v) == 0 {
			return math.NaN()
		}
		return v[len(v)-1]
	}
	out := liveOutcome{
		ArrayRecords:   st.Records,
		SeriesResp:     int64(last("resp_count")),
		Span:           time.Duration(st.TimeNS),
		Enclosures:     enclosures,
		AvgEnclosureW:  st.AvgEnclosureW,
		EnergyJ:        st.EnergyJ,
		FlightFinalJ:   last("total_energy_j"),
		SpinUps:        st.SpinUps,
		Determinations: st.Determinations,
		MigratedBytes:  st.MigratedBytes,
		CacheHits:      st.CacheHits,
		PhysicalIOs:    int64(last("physical_reads") + last("physical_writes")),
		SeriesSamples:  ser.Len(),
		AlertsFired:    a.AlertSummary().Fired,
	}
	if p := a.ProvenanceSummary(); p != nil {
		out.ProvenanceOffered = p.Offered
	}
	return out
}

// reference is the benchmark's own pass over the trace: the record and
// read counts every policy must report, and the Fig. 6 classification
// by the naive rule below.
type reference struct {
	records, reads int64
	// mix counts items per class P0..P3.
	mix [4]int
}

// referencePass reads a fresh source of w once. The naive Fig. 6 rule:
// gaps longer than the break-even time, counting the gaps from the start
// of the trace to an item's first I/O and from its last I/O to the end,
// are Long Intervals; an item with no I/O is P0, an item with no Long
// Interval P3, otherwise P1 if more than half its I/Os are reads, else
// P2.
func referencePass(w *workload.Workload) (reference, error) {
	type item struct {
		n, reads int64
		last     time.Duration
		long     bool
	}
	items := make([]item, w.Catalog.Len())
	var ref reference
	src := w.Source()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		it := &items[rec.Item]
		if rec.Time-it.last > breakEven { // it.last is 0 before the first I/O
			it.long = true
		}
		it.last = rec.Time
		it.n++
		ref.records++
		if rec.Op == trace.OpRead {
			it.reads++
			ref.reads++
		}
	}
	if err := src.Err(); err != nil {
		return reference{}, err
	}
	for _, it := range items {
		switch {
		case it.n == 0:
			ref.mix[0]++
		case !it.long && w.Duration-it.last <= breakEven:
			ref.mix[3]++
		case 2*it.reads > it.n:
			ref.mix[1]++
		default:
			ref.mix[2]++
		}
	}
	return ref, nil
}

// relClose reports whether a and b agree to within tol relative to the
// larger magnitude.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkReplays checks every offline replay against the reference pass
// and the properties the power model must have.
func checkReplays(ref reference, reps []replayOutcome) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	for _, r := range reps {
		p := r.Policy
		if r.Records != ref.records || r.Reads != ref.reads {
			fail("%s: replay completed %d records (%d reads), the trace has %d (%d reads)", p, r.Records, r.Reads, ref.records, ref.reads)
		}
		if d := r.AvgTotalW - r.AvgEnclosureW; !relClose(d, controllerW, 1e-9) {
			fail("%s: total minus enclosure power is %.9g W, want the controller's %.0f W", p, d, controllerW)
		}
		n := float64(r.Enclosures)
		if r.AvgEnclosureW < n*offW || r.AvgEnclosureW > n*spinUpW {
			fail("%s: enclosure power %.6g W outside [%g, %g] W for %d enclosures", p, r.AvgEnclosureW, n*offW, n*spinUpW, r.Enclosures)
		}
		if p != "none" {
			continue
		}
		// Without power saving nothing spins up or moves, every record
		// is served exactly once, and energy is residency times draw.
		if r.SpinUps != 0 || r.Storage.Migrations != 0 || r.Storage.MigratedBytes != 0 {
			fail("none: %d spin-ups, %d migrations (%d B); want none", r.SpinUps, r.Storage.Migrations, r.Storage.MigratedBytes)
		}
		if served := r.Storage.PhysicalReads + r.Storage.PhysicalWrites + r.Storage.CacheHits; served != ref.records {
			fail("none: physical reads+writes+cache hits = %d, want the %d records", served, ref.records)
		}
		if res := r.residencyW(); !relClose(res, r.AvgEnclosureW, 1e-9) {
			fail("none: enclosure power %.9g W but residency × Table II draws gives %.9g W", r.AvgEnclosureW, res)
		}
	}
	return bad
}

// checkComparison checks the paper's headline ordering on the file
// server: ESM saves power against no power saving, and PDC migrates at
// least ten times ESM's bytes.
func checkComparison(o outcome) []string {
	none, esm, pdc := o.replay("none"), o.replay("esm"), o.replay("pdc")
	if none == nil || esm == nil || pdc == nil {
		return []string{"comparison lacks none, esm or pdc"}
	}
	var bad []string
	if esm.AvgEnclosureW >= none.AvgEnclosureW {
		bad = append(bad, fmt.Sprintf("esm draws %.1f W, not less than none's %.1f W", esm.AvgEnclosureW, none.AvgEnclosureW))
	}
	if pdc.Storage.MigratedBytes < 10*esm.Storage.MigratedBytes {
		bad = append(bad, fmt.Sprintf("pdc migrated %d B, less than 10× esm's %d B", pdc.Storage.MigratedBytes, esm.Storage.MigratedBytes))
	}
	return bad
}

// checkMix compares the program's Fig. 6 mix with the naive one.
func checkMix(ref reference, mix core.PatternMix) []string {
	got := [4]int{mix.Counts[core.P0], mix.Counts[core.P1], mix.Counts[core.P2], mix.Counts[core.P3]}
	if got != ref.mix {
		return []string{fmt.Sprintf("Fig. 6 mix P0..P3 = %v, the naive classification gives %v", got, ref.mix)}
	}
	return nil
}

// checkLive checks the live array against the reference pass: every
// record encoded, fed and counted, energy consistent with the flight
// recorder and within the power model's bounds, and no alert fired.
func checkLive(ref reference, l liveOutcome) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if l.Encoded != ref.records || l.Fed != ref.records || l.ArrayRecords != ref.records || l.SeriesResp != ref.records {
		fail("live: encoded %d, fed %d, array counted %d, series responses %d; the trace has %d records",
			l.Encoded, l.Fed, l.ArrayRecords, l.SeriesResp, ref.records)
	}
	if l.EnergyJ != l.FlightFinalJ {
		fail("live: array energy %.9g J but the flight recorder's final sample has %.9g J", l.EnergyJ, l.FlightFinalJ)
	}
	if s := l.Span.Seconds(); s <= 0 {
		fail("live: empty span")
	} else if d := l.EnergyJ/s - l.AvgEnclosureW; !relClose(d, controllerW, 1e-9) {
		fail("live: total minus enclosure power is %.9g W, want the controller's %.0f W", d, controllerW)
	}
	n := float64(l.Enclosures)
	if l.AvgEnclosureW < n*offW || l.AvgEnclosureW > n*spinUpW {
		fail("live: enclosure power %.6g W outside [%g, %g] W for %d enclosures", l.AvgEnclosureW, n*offW, n*spinUpW, l.Enclosures)
	}
	if l.AlertsFired != 0 {
		fail("live: %d watchdog alerts fired; the rule set should stay quiet", l.AlertsFired)
	}
	return bad
}

// checkOutcome runs every check that applies to a round's outcome.
func checkOutcome(name string, ref reference, o outcome) []string {
	bad := checkReplays(ref, o.replays)
	if name == fileServerPaper {
		bad = append(bad, checkComparison(o)...)
	}
	if o.live != nil {
		bad = append(bad, checkLive(ref, *o.live)...)
	}
	return bad
}

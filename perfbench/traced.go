package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"esm/internal/experiments"
	"esm/internal/policy"
	"esm/internal/simclock"
	"esm/internal/storage"
	"esm/internal/trace"
	"esm/internal/workload"
)

// The traced run measures each layer by timing calls into its public
// functions from here; no span is recorded inside the program. It has
// two passes over the workload's trace:
//
//   - the layer pass reads a fresh source in chunks and, chunk by chunk,
//     times the source, a stream-codec decode of the chunk, a no-policy
//     drive of the storage array and the event queue, and a live array
//     fed the same records;
//   - the scheduler pass replays the trace under the four policies of
//     the paper's comparison through the experiments scheduler at
//     parallelism 2, each policy wrapped so its hooks are timed.

// chunkRecords is the layer pass's chunk: large enough that the per-chunk
// clock reads and heap statistics cost nothing measurable, small enough
// to stay in a few megabytes.
const chunkRecords = 1 << 16

// layerPass is what the layer pass measured.
type layerPass struct {
	records int64

	sourceTime   time.Duration
	sourceAllocs uint64
	decodeTime   time.Duration
	submitTime   time.Duration
	runUntilTime time.Duration
	driveAllocs  uint64
	feedTime     time.Duration

	// encoded counts the records written to the stream codec; live is
	// the fed array's final state.
	encoded int64
	live    liveOutcome
}

func runLayerPass(w *workload.Workload, tm timer) (layerPass, error) {
	var lp layerPass
	var clk simclock.Clock
	var evq simclock.EventQueue
	arr, err := storage.New(experiments.StorageFor(w), &clk, &evq, w.Catalog)
	if err != nil {
		return lp, err
	}
	for item, enc := range w.Placement {
		if err := arr.Place(trace.ItemID(item), enc); err != nil {
			return lp, err
		}
	}
	live, closer, err := newLiveArray(w)
	if err != nil {
		return lp, err
	}
	defer closer.Close()

	chunk := make([]trace.LogicalRecord, 0, chunkRecords)
	var buf bytes.Buffer
	var ms0, ms1 runtime.MemStats
	src := w.Source()
	for done := false; !done; {
		// Source: fill the chunk.
		chunk = chunk[:0]
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for len(chunk) < chunkRecords {
			rec, ok := src.Next()
			if !ok {
				done = true
				break
			}
			chunk = append(chunk, rec)
		}
		lp.sourceTime += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		lp.sourceAllocs += ms1.Mallocs - ms0.Mallocs
		if len(chunk) == 0 {
			break
		}
		lp.records += int64(len(chunk))

		// Stream codec: encode untimed, decode timed, and check the
		// round trip.
		buf.Reset()
		sw := trace.NewStreamWriter(&buf)
		for _, rec := range chunk {
			if err := sw.Append(rec); err != nil {
				return lp, err
			}
		}
		if err := sw.Close(); err != nil {
			return lp, err
		}
		lp.encoded += sw.Count()
		t0 = time.Now()
		sr := trace.NewStreamReader(bytes.NewReader(buf.Bytes()))
		for i := 0; ; i++ {
			rec, err := sr.Next()
			if err == io.EOF {
				if i != len(chunk) {
					return lp, fmt.Errorf("stream codec decoded %d of %d records", i, len(chunk))
				}
				break
			}
			if err != nil {
				return lp, err
			}
			if i >= len(chunk) || rec != chunk[i] {
				return lp, fmt.Errorf("stream codec round trip changed record %d", i)
			}
		}
		lp.decodeTime += time.Since(t0)

		// Storage and simclock: the array with no policy attached.
		runtime.ReadMemStats(&ms0)
		for _, rec := range chunk {
			t0 := time.Now()
			evq.RunUntil(&clk, rec.Time)
			t1 := time.Now()
			if _, err := arr.Submit(rec); err != nil {
				return lp, err
			}
			t2 := time.Now()
			lp.runUntilTime += t1.Sub(t0) - tm.inner
			lp.submitTime += t2.Sub(t1) - tm.inner
		}
		runtime.ReadMemStats(&ms1)
		lp.driveAllocs += ms1.Mallocs - ms0.Mallocs

		// Live ingest.
		t0 = time.Now()
		for _, rec := range chunk {
			if err := live.Feed(rec); err != nil {
				return lp, err
			}
		}
		lp.feedTime += time.Since(t0)
	}
	if err := src.Err(); err != nil {
		return lp, err
	}
	evq.RunUntil(&clk, w.Duration)
	arr.FlushAll()
	arr.Finish()
	if err := live.Finish(); err != nil {
		return lp, err
	}
	lp.live = liveOutcomeOf(live, w.Enclosures)
	lp.live.Fed, lp.live.Encoded = lp.records, lp.encoded
	return lp, nil
}

// timedPolicy forwards to a policy and times its hooks. Its Init and
// Finish bracket the replay loop of replay.Execute.
type timedPolicy struct {
	policy.Policy
	tm          timer
	hooks       time.Duration
	calls       int64
	start, stop time.Time
}

func (p *timedPolicy) Init(ctx *policy.Context) {
	p.start = time.Now()
	p.Policy.Init(ctx)
}

func (p *timedPolicy) OnLogical(rec trace.LogicalRecord) {
	t := time.Now()
	p.Policy.OnLogical(rec)
	p.hooks += time.Since(t) - p.tm.inner
	p.calls++
}

func (p *timedPolicy) OnPhysical(rec trace.PhysicalRecord) {
	t := time.Now()
	p.Policy.OnPhysical(rec)
	p.hooks += time.Since(t) - p.tm.inner
	p.calls++
}

func (p *timedPolicy) OnPower(enc int, at time.Duration, on bool) {
	t := time.Now()
	p.Policy.OnPower(enc, at, on)
	p.hooks += time.Since(t) - p.tm.inner
	p.calls++
}

func (p *timedPolicy) Finish(now time.Duration) {
	p.Policy.Finish(now)
	p.stop = time.Now()
}

// schedulerPass is what the scheduler pass measured.
type schedulerPass struct {
	replays []replayOutcome
	timed   []*timedPolicy
	phase   phase
}

func runSchedulerPass(w *workload.Workload, factories []experiments.PolicyFactory, tm timer) (schedulerPass, error) {
	var sp schedulerPass
	wrapped := make([]experiments.PolicyFactory, len(factories))
	for i, f := range factories {
		f := f
		wrapped[i] = experiments.PolicyFactory{Name: f.Name, New: func() (policy.Policy, error) {
			p, err := f.New()
			if err != nil {
				return nil, err
			}
			tp := &timedPolicy{Policy: p, tm: tm}
			sp.timed = append(sp.timed, tp)
			return tp, nil
		}}
	}
	experiments.SetParallelism(2)
	runtime.GC()
	start := sampleProc()
	ev, err := experiments.Evaluate(w, wrapped)
	if err != nil {
		return sp, err
	}
	sp.phase = since(start)
	for i, r := range ev.Results {
		sp.replays = append(sp.replays, replayOutcomeOf(ev.Policies[i].Name, w.Enclosures, r))
	}
	return sp, nil
}

// tracedMetrics turns the two passes into the per-layer metrics. The
// replay engine's own time is the wall time between the policy's Init
// and Finish less the policy's hooks, the timing calls themselves and
// the source's share, taken at the layer pass's per-record source cost.
func tracedMetrics(lp layerPass, sp schedulerPass, tm timer) map[string]metric {
	per := func(x float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	perRec := func(d time.Duration, n int64) float64 { return per(float64(d.Nanoseconds()), n) }
	n := lp.records
	m := map[string]metric{
		"workload.source_ns_per_record":     {perRec(lp.sourceTime, n), "ns"},
		"workload.source_allocs_per_record": {per(float64(lp.sourceAllocs), n), "count"},
		"trace.decode_ns_per_record":        {perRec(lp.decodeTime, n), "ns"},
		"storage.submit_ns":                 {perRec(lp.submitTime, n), "ns"},
		"storage.submit_allocs":             {per(float64(lp.driveAllocs), n), "count"},
		"simclock.run_until_ns_per_record":  {perRec(lp.runUntilTime, n), "ns"},
		"fleet.feed_ns_per_record":          {perRec(lp.feedTime, n), "ns"},
		"experiments.cpu_per_wall":          {sp.phase.cpu.Seconds() / sp.phase.wall.Seconds(), "ratio"},
	}
	sourceNs := perRec(lp.sourceTime, n)
	var engine time.Duration
	var engineRecs int64
	for i, tp := range sp.timed {
		recs := sp.replays[i].Records
		name := sp.replays[i].Policy
		if key, ok := hookMetric[name]; ok {
			m[key] = metric{perRec(tp.hooks, recs), "ns"}
		}
		span := tp.stop.Sub(tp.start) - tp.hooks - time.Duration(tp.calls)*tm.outer
		engine += span - time.Duration(sourceNs*float64(recs))
		engineRecs += recs
	}
	m["replay.engine_ns_per_record"] = metric{perRec(engine, engineRecs), "ns"}
	return m
}

// hookMetric names each power-saving policy's hook metric by the package
// that implements it.
var hookMetric = map[string]string{
	"esm": "core.hooks_ns_per_record",
	"pdc": "pdc.hooks_ns_per_record",
	"ddr": "ddr.hooks_ns_per_record",
}

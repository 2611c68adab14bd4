package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"esm/internal/core"
	"esm/internal/experiments"
	"esm/internal/fleet"
	"esm/internal/obs"
	"esm/internal/replay"
	"esm/internal/trace"
	"esm/internal/workload"
)

// The three workloads. Each stresses a different path through the
// simulator; README.md records their make-up and why each was chosen.
const (
	fileServerPaper = "fileserver-paper"
	cloudBlockESM   = "cloudblock-esm"
	oltpLive        = "oltp-live"
)

var workloadNames = []string{fileServerPaper, cloudBlockESM, oltpLive}

// breakEven is the paper's break-even time (Table II), the Long
// Interval threshold of the Fig. 6 classification.
const breakEven = 52 * time.Second

// quietRules is the live array's watchdog rule set. Every threshold lies
// far beyond anything the workload reaches, so the watchdog evaluates on
// every sample and never fires; a firing rule fails the run.
var quietRules = []string{
	"energy-budget:total_energy_j>1e15",
	"latency-budget:resp_p99_us>1e9:for=60s",
	"spinup-storm:rate(spin_ups)>100",
}

// sizes fixes the input scale of every workload. The benchmark runs
// fullSizes; the tests run reducedSizes through the same code and checks.
type sizes struct {
	fileServer workload.FileServerConfig
	cloudBlock workload.CloudBlockConfig
	oltp       workload.OLTPConfig
}

// fullSizes are the benchmark's inputs: the File Server trace at the
// paper's 6 h span, the cloud-block trace at 36 simulated minutes and
// the TPC-C-like trace at 22 simulated minutes.
func fullSizes() sizes {
	oltp := workload.DefaultOLTPConfig()
	oltp.Duration = 22 * time.Minute
	return sizes{
		fileServer: workload.DefaultFileServerConfig(),
		cloudBlock: workload.DefaultCloudBlockConfig().Scaled(0.1),
		oltp:       oltp,
	}
}

// reducedSizes are small enough for unit tests yet keep every policy
// active: ESM still saves power on the file server and PDC still
// migrates far more than ESM.
func reducedSizes() sizes {
	cb := workload.DefaultCloudBlockConfig()
	cb.Tenants, cb.Volumes, cb.Duration = 40, 1000, 5*time.Minute
	oltp := workload.DefaultOLTPConfig()
	oltp.Duration, oltp.RateScale = 10*time.Minute, 0.05
	return sizes{
		fileServer: workload.DefaultFileServerConfig().Scaled(0.25),
		cloudBlock: cb,
		oltp:       oltp,
	}
}

// bench is one workload at one seed: its inputs, built by setup, and
// the measured round that consumes them.
type bench struct {
	name string
	seed int64
	sz   sizes

	w *workload.Workload
	// stream and encoded hold oltp-live's trace in the stream codec and
	// the number of records written to it.
	stream  *blockBuffer
	encoded int64
	// array is the live array the next oltp-live round feeds.
	array  *fleet.Array
	closer io.Closer
}

func newBench(name string, seed int64, sz sizes) (*bench, error) {
	for _, n := range workloadNames {
		if n == name {
			return &bench{name: name, seed: seed, sz: sz}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median. Generating a lazy trace takes milliseconds, encoding the
// oltp-live trace seconds.
func (b *bench) setupRepeats() int {
	if b.name == oltpLive {
		return 3
	}
	return 25
}

// generate builds the seeded workload.
func (b *bench) generate() (*workload.Workload, error) {
	switch b.name {
	case fileServerPaper:
		cfg := b.sz.fileServer
		cfg.Seed = b.seed
		return workload.GenerateFileServer(cfg)
	case cloudBlockESM:
		cfg := b.sz.cloudBlock
		cfg.Seed = b.seed
		return workload.GenerateCloudBlock(cfg)
	default:
		cfg := b.sz.oltp
		cfg.Seed = b.seed
		return workload.GenerateOLTP(cfg)
	}
}

// setup generates the workload; for oltp-live it also encodes the trace
// to the stream codec and builds the live array. It is what setup_s
// times.
func (b *bench) setup() error {
	w, err := b.generate()
	if err != nil {
		return err
	}
	b.w = w
	if b.name != oltpLive {
		return nil
	}
	buf := &blockBuffer{}
	sw := trace.NewStreamWriter(buf)
	src := w.Source()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := sw.Append(rec); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}
	b.stream, b.encoded = buf, sw.Count()
	return b.buildArray()
}

// buildArray makes a fresh live array for oltp-live: ESM with its
// always-on event recorder and flight recorder, plus the provenance
// ledger and the quiet watchdog.
func (b *bench) buildArray() error {
	a, closer, err := newLiveArray(b.w)
	if err != nil {
		return err
	}
	b.release()
	b.array, b.closer = a, closer
	return nil
}

func newLiveArray(w *workload.Workload) (*fleet.Array, io.Closer, error) {
	rules, err := obs.ParseRules(quietRules)
	if err != nil {
		return nil, nil, err
	}
	const name = "live"
	fl, err := fleet.New(fleet.Options{Specs: []fleet.ArraySpec{{
		Name:       name,
		Catalog:    w.Catalog,
		Placement:  w.Placement,
		Enclosures: w.Enclosures,
		Alerts:     rules,
		Provenance: true,
	}}})
	if err != nil {
		return nil, nil, err
	}
	return fl.Array(name), fl, nil
}

// reset drops the inputs of the previous setup, so a new setup does not
// hold two copies.
func (b *bench) reset() {
	b.release()
	b.w, b.stream, b.encoded = nil, nil, 0
}

// release closes the previous live array, if any.
func (b *bench) release() {
	if b.closer != nil {
		b.closer.Close()
	}
	b.array, b.closer = nil, nil
}

// prepareRound readies the inputs of the next round outside its timing:
// a live array can be fed only once, so each oltp-live round gets a
// fresh one (a fraction of a millisecond to build).
func (b *bench) prepareRound() error {
	if b.name != oltpLive {
		return nil
	}
	return b.buildArray()
}

// policies is the paper's comparison set, with PDC's reorganisation
// period shortened in proportion to the trace, as the experiments
// harness does for scaled runs.
func (b *bench) policies() []experiments.PolicyFactory {
	var span, full time.Duration
	switch b.name {
	case fileServerPaper:
		span, full = b.sz.fileServer.Duration, workload.DefaultFileServerConfig().Duration
	case cloudBlockESM:
		span, full = b.sz.cloudBlock.Duration, workload.DefaultCloudBlockConfig().Duration
	default:
		span, full = b.sz.oltp.Duration, workload.DefaultOLTPConfig().Duration
	}
	return experiments.PoliciesFor(float64(span) / float64(full))
}

// esmPolicy returns the proposed method's factory.
func esmPolicy() experiments.PolicyFactory {
	for _, f := range experiments.DefaultPolicies() {
		if f.Name == "esm" {
			return f
		}
	}
	panic("experiments: default policies lack esm")
}

// replayRun builds the replay of w under one policy exactly as the
// experiments harness does.
func replayRun(w *workload.Workload, f experiments.PolicyFactory) (replay.Run, error) {
	pol, err := f.New()
	if err != nil {
		return replay.Run{}, err
	}
	return replay.Run{
		Catalog:    w.Catalog,
		Source:     w.Source(),
		Placement:  w.Placement,
		Storage:    experiments.StorageFor(w),
		Policy:     pol,
		Duration:   w.Duration,
		ClosedLoop: w.ClosedLoop,
	}, nil
}

// round runs the measured phase once and returns what it produced:
//   - fileserver-paper: the four-policy comparison through the
//     experiments scheduler at parallelism 2;
//   - cloudblock-esm: one serial ESM replay;
//   - oltp-live: decode the stream and feed it record by record into the
//     live array, then finish it.
func (b *bench) round() (outcome, error) {
	switch b.name {
	case fileServerPaper:
		experiments.SetParallelism(2)
		ev, err := experiments.Evaluate(b.w, b.policies())
		if err != nil {
			return outcome{}, err
		}
		var out outcome
		for i, r := range ev.Results {
			out.replays = append(out.replays, replayOutcomeOf(ev.Policies[i].Name, b.w.Enclosures, r))
		}
		return out, nil
	case cloudBlockESM:
		run, err := replayRun(b.w, esmPolicy())
		if err != nil {
			return outcome{}, err
		}
		r, err := replay.Execute(run)
		if err != nil {
			return outcome{}, err
		}
		return outcome{replays: []replayOutcome{replayOutcomeOf("esm", b.w.Enclosures, r)}}, nil
	default:
		a := b.array
		if a == nil {
			return outcome{}, fmt.Errorf("oltp-live round without a live array")
		}
		b.array = nil // fed once
		sr := trace.NewStreamReader(b.stream.reader())
		var fed int64
		for {
			rec, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return outcome{}, err
			}
			if err := a.Feed(rec); err != nil {
				return outcome{}, err
			}
			fed++
		}
		if err := a.Finish(); err != nil {
			return outcome{}, err
		}
		live := liveOutcomeOf(a, b.w.Enclosures)
		live.Fed, live.Encoded = fed, b.encoded
		return outcome{live: &live}, nil
	}
}

// blockBuffer is an append-only byte store in fixed-size blocks: unlike
// a bytes.Buffer it never copies itself while growing, so an encoded
// trace costs its own size in memory and no more.
type blockBuffer struct {
	blocks [][]byte
}

const blockBytes = 1 << 20

func (b *blockBuffer) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if k := len(b.blocks); k == 0 || len(b.blocks[k-1]) == blockBytes {
			b.blocks = append(b.blocks, make([]byte, 0, blockBytes))
		}
		last := &b.blocks[len(b.blocks)-1]
		c := min(len(p), blockBytes-len(*last))
		*last = append(*last, p[:c]...)
		p = p[c:]
	}
	return n, nil
}

// reader returns a reader over everything written so far.
func (b *blockBuffer) reader() io.Reader {
	rs := make([]io.Reader, len(b.blocks))
	for i, blk := range b.blocks {
		rs[i] = bytes.NewReader(blk)
	}
	return io.MultiReader(rs...)
}

// patternMix is the program's Fig. 6 classification of the workload.
func (b *bench) patternMix() core.PatternMix {
	return experiments.PatternMix(b.w, breakEven)
}

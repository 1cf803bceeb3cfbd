package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/protocol"
)

// localWorkload is a closed loop of one caller running sweeps in
// process: each op plans a sweep and runs it to a CSV sink with
// Workers: 1, as `tctp-sweep -workers 1` does.
type localWorkload struct {
	name string
	// request is the op's sweep at replication base seed base.
	request func(base uint64) protocol.SweepRequest
	// vips, when > 0, puts that many VIPs of weight 2 on the VIP axis.
	vips int
	// traceOps is the fixed op count of each phase of a traced run.
	traceOps int
}

// localMinOps keeps a timed local run going past its seconds until p90
// and the warm/cold medians have enough samples beyond them.
const localMinOps = 100

var paper51Sweep = &localWorkload{
	name: "paper51_sweep",
	request: func(base uint64) protocol.SweepRequest {
		return protocol.SweepRequest{
			Preset: "paper51", Algorithms: "btctp,wtctp,chb",
			Targets: "20,40", Mules: "4,8", Seeds: 4,
			Horizon: 100_000, Workers: 1, BaseSeed: base,
		}
	},
	vips:     2,
	traceOps: 12,
}

var n1000Plan = &localWorkload{
	name: "n1000_plan",
	request: func(base uint64) protocol.SweepRequest {
		return protocol.SweepRequest{
			Preset: "paper51", Algorithms: "btctp",
			Targets: "1000", Mules: "8", Seeds: 1,
			Horizon: 20_000, Workers: 1, BaseSeed: base,
		}
	},
	traceOps: 24,
}

// referenceBase is the replication base seed of every workload's
// reference input, whose output digest golden.json pins. Op inputs
// are drawn from another range, so they never repeat it.
const referenceBase = 1

func (w *localWorkload) spec(base uint64) (sweep.Spec, error) {
	spec, err := build.Spec(w.request(base))
	if err != nil {
		return spec, err
	}
	if w.vips > 0 {
		spec.VIPs, spec.VIPWeights = []int{w.vips}, []int{2}
	}
	return spec, nil
}

// run plans and runs one sweep, traced when tr is non-nil, and returns
// its CSV and replication count.
func (w *localWorkload) run(base uint64, tr *tracer) ([]byte, int, error) {
	spec, err := w.spec(base)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	sink := sweep.CSV(&buf)
	if tr != nil {
		tr.instrument(&spec)
		sink = tracedSink{sink, tr}
		tr.begin("run", "op")
		defer tr.end("run")
	}
	job, err := sweep.Plan(spec)
	if err != nil {
		return nil, 0, err
	}
	p, err := job.Run(context.Background(), sweep.RunOpts{Sinks: []sweep.Sink{sink}})
	if err != nil {
		return nil, 0, err
	}
	if err := btctpRowsRegular(buf.Bytes()); err != nil {
		return nil, 0, err
	}
	reps := 0
	for _, c := range p.Result().Cells {
		reps += c.Reps
	}
	return buf.Bytes(), reps, nil
}

// btctpRowsRegular checks the paper's B-TCTP claim on a sweep's CSV:
// every btctp row reports avg_sd_s exactly 0 (as printed, "0.000").
func btctpRowsRegular(out []byte) error {
	rows, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil || len(rows) < 2 {
		return fmt.Errorf("unreadable sweep CSV: %v", err)
	}
	alg, sd := slices.Index(rows[0], "algorithm"), slices.Index(rows[0], "avg_sd_s")
	if alg < 0 || sd < 0 {
		return fmt.Errorf("sweep CSV lacks algorithm/avg_sd_s columns: %v", rows[0])
	}
	for _, r := range rows[1:] {
		if r[alg] == "btctp" && r[sd] != "0.000" {
			return fmt.Errorf("btctp row %v: avg_sd_s %s, want exactly 0.000", r[:3], r[sd])
		}
	}
	return nil
}

// localBench is a set-up local workload.
type localBench struct {
	w    *localWorkload
	seed uint64
	tr   *tracer
}

func (w *localWorkload) setup(seed uint64, tr *tracer) (bench, *phase, error) {
	if _, err := w.spec(referenceBase); err != nil {
		return nil, nil, err
	}
	// The untimed warm-up op is the reference input, checked against
	// its pinned digest.
	ref := &phase{}
	out, _, err := w.run(referenceBase, nil)
	ref.check(w.name+" reference", out, err)
	return &localBench{w: w, seed: seed, tr: tr}, ref, nil
}

// inputs yields one caller's op inputs, a function of the workload seed
// alone: every third op repeats a random earlier cold base seed of the
// round (warm); the others take the next fresh base seed (cold). With
// a warm share of exactly one half, the median of service_mix's
// two-mode latencies would fall in the gap between the modes, on the
// slowest warm op; at one third it lies inside the cold mode.
type inputs struct {
	rng   *rand.Rand
	next  uint64
	bases []uint64
}

// newInputs starts caller stream's base seeds in a range of their own,
// far above the reference base seed, so no two callers share a cell.
func newInputs(seed, stream uint64) *inputs {
	rng := rand.New(rand.NewPCG(seed, stream))
	return &inputs{rng: rng, next: stream<<44 + rng.Uint64()>>24}
}

func (in *inputs) op(i int) (base uint64, warm bool) {
	if i%3 == 2 && len(in.bases) > 0 {
		return in.bases[in.rng.IntN(len(in.bases))], true
	}
	base = in.next
	in.next += 8 // more than any cell's seed count
	in.bases = append(in.bases, base)
	return base, false
}

// newRound forgets the cold inputs, as a freshly started cache does.
func (in *inputs) newRound() { in.bases = in.bases[:0] }

func (b *localBench) measure(bud budget) *phase {
	ph := &phase{}
	in := newInputs(b.seed, 1)
	first := map[uint64][32]byte{}
	digest := sha256.New()
	rt0 := readRuntime()
	takePeak()
	var durs []time.Duration
	start := time.Now()
	for i := 0; bud.more(i, time.Since(start)); i++ {
		base, warm := in.op(i)
		if bud.calibrate {
			ph.refs = append(ph.refs, refSample())
		}
		if b.tr != nil {
			b.tr.beginOp(i)
		}
		t0 := time.Now()
		out, reps, err := b.w.run(base, b.tr)
		lat := time.Since(t0)
		durs = append(durs, lat)
		if b.tr != nil {
			b.tr.end("op")
		}
		sum := sha256.Sum256(out)
		if prev, ok := first[base]; ok && err == nil && prev != sum {
			err = fmt.Errorf("op %d: base seed %d output differs from its first run", i, base)
		}
		if _, ok := first[base]; !ok && err == nil {
			first[base] = sum
		}
		digest.Write(sum[:])
		ph.add(lat, warm, err)
		ph.reps += reps
		ph.sinkBytes += len(out)
		if (i+1)%heapBlock == 0 {
			ph.peaks = append(ph.peaks, takePeak())
		}
	}
	ph.rt = rt0.to(readRuntime())
	if bud.calibrate {
		ph.factor = windowFactors(ph.refs)
	}
	for i, d := range durs {
		ph.wall += d
		if bud.calibrate {
			ph.calWall += d.Seconds() * ph.factor[i]
		}
	}
	if len(ph.peaks) == 0 {
		ph.peaks = append(ph.peaks, takePeak())
	}
	ph.digest = fmt.Sprintf("%x", digest.Sum(nil))
	if b.tr != nil {
		ph.counts = map[string]int64{
			"reps": int64(ph.reps), "visits": b.tr.visits.Load(), "sink_bytes": int64(ph.sinkBytes),
		}
	}
	return ph
}

func (b *localBench) close() {}

// layers derives the per-layer metrics of a traced local phase.
func (b *localBench) layers(ph *phase, clean *phase) map[string]float64 {
	total, self, count := b.tr.layerTimes()
	reps, ops := float64(count["rep"]), float64(count["op"])
	visits := float64(b.tr.visits.Load())
	return map[string]float64{
		"scenario.ms_per_rep":      frac(ms(total["scenario"]), reps),
		"plan.ms_per_rep":          frac(ms(total["plan"]), reps),
		"plan.share":               frac(ms(total["plan"]), ms(total["op"])),
		"simulate.ms_per_rep":      frac(ms(self["simulate"]), reps),
		"simulate.visits_per_rep":  frac(visits, reps),
		"simulate.us_per_visit":    frac(ms(total["simulate"])*1000, visits),
		"metrics.ms_per_rep":       frac(ms(total["metrics"]), reps),
		"fold.self_ms_per_op":      frac(ms(self["run"]), ops),
		"sink.ms_per_op":           frac(ms(total["sink"]), ops),
		"sink.bytes_per_op":        frac(float64(ph.sinkBytes), ops),
		"gc.alloc_objects_per_rep": frac(clean.rt.allocObjects, float64(clean.reps)),
		"gc.alloc_bytes_per_rep":   frac(clean.rt.allocBytes, float64(clean.reps)),
		"gc.cycles_per_op":         frac(clean.rt.gcCycles, float64(len(clean.lat))),
		"gc.cpu_frac":              clean.rt.gcCPUFrac(),
	}
}

func (w *localWorkload) workload() workload {
	return workload{
		setup:  w.setup,
		setups: 9,
		budget: func(seconds float64) budget {
			return budget{seconds: seconds, minOps: localMinOps}
		},
		traceBudget: budget{ops: w.traceOps},
		absent:      localAbsent,
	}
}

// localAbsent says why the service layers read 0 on a local workload.
var localAbsent = []string{
	"cache.*, dispatch.*, worker.*, server.*: bypassed — local ops run sweep.Plan + Job.Run with no cache, scheduler, worker or server; counts are 0 and times/ratios are undefined (printed as 0)",
}

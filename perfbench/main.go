// Command perfbench is the repository benchmark: it generates a
// workload's inputs from a seed, runs the workload in this process,
// checks every op's output, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of its
// standard output. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// golden maps "<workload> reference" to the SHA-256 of the reference
// input's output bytes.
var golden map[string]string

// bench is a set-up workload ready to measure.
type bench interface {
	measure(budget) *phase
	// layers derives the per-layer metrics of a traced phase; clean is
	// the untraced phase of the same inputs.
	layers(traced, clean *phase) map[string]float64
	close()
}

type workload struct {
	setup func(seed uint64, tr *tracer) (bench, *phase, error)
	// setups is how many times an end-to-end run sets the workload up;
	// setup_s is their median, and the last set-up is the one measured.
	setups int
	// budget sizes the timed loop of an end-to-end run of seconds.
	budget func(seconds float64) budget
	// traceBudget is the fixed size of each phase of a traced run.
	traceBudget budget
	// absent says which per-layer metrics the workload cannot measure.
	absent []string
}

var workloads = map[string]workload{
	"paper51_sweep": paper51Sweep.workload(),
	"n1000_plan":    n1000Plan.workload(),
	"service_mix": {
		setup:  setupService,
		setups: 25, // a set-up takes ~10 ms, so one scheduling hiccup moves it
		budget: func(seconds float64) budget {
			return budget{ops: serviceRoundOps, rounds: serviceRounds(seconds)}
		},
		traceBudget: budget{ops: serviceTraceOps, rounds: 1},
		absent:      serviceAbsent,
	},
}

// budget bounds a measured phase: a fixed op count, or a time budget
// with a floor on the op count.
type budget struct {
	ops     int
	seconds float64
	minOps  int
	// rounds splits a fixed-count phase into rounds of ops each, on a
	// freshly set-up system (service_mix only).
	rounds int
	// calibrate times the reference kernel between ops (calib.go).
	// Traced phases leave it off: the kernel's allocations would count
	// in their runtime counters.
	calibrate bool
}

func (b budget) more(done int, elapsed time.Duration) bool {
	if b.ops > 0 {
		return done < b.ops
	}
	return elapsed.Seconds() < b.seconds || done < b.minOps
}

// phase is the outcome of one measured loop.
type phase struct {
	lat       []float64 // ms per op
	warm      []bool
	attempted int
	failed    int
	errs      []string
	wall      time.Duration // spent in ops
	// factor calibrates each op's latency (calib.go); calWall is wall
	// calibrated, in seconds. Both are set only when calibrating.
	factor    []float64
	calWall   float64
	refs      []float64 // the kernel samples, ms
	reps      int       // replications computed
	sinkBytes int
	peaks     []uint64 // peak live heap of each block of ops (local) or round
	rt        runtimeDelta
	digest    string           // over every op's output, in op order
	counts    map[string]int64 // exact counts of a traced phase
	retained  float64          // live-heap growth per op, bytes
}

// add records one op. A failed op never completed, so it counts as
// slower than any latency.
func (p *phase) add(lat time.Duration, warm bool, err error) {
	l := ms(lat)
	p.attempted++
	if err != nil {
		l = math.Inf(1)
		p.fail(err)
	}
	p.lat = append(p.lat, l)
	p.warm = append(p.warm, warm)
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// check counts one output check against the golden digest of name.
func (p *phase) check(name string, out []byte, err error) {
	p.attempted++
	if err == nil {
		sum := fmt.Sprintf("%x", sha256.Sum256(out))
		if want := golden[name]; sum != want {
			err = fmt.Errorf("%s: output sha256 %s, golden %s", name, sum, want)
		}
	}
	if err != nil {
		p.fail(err)
	}
}

func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	for _, e := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper51_sweep, n1000_plan or service_mix")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "timed-loop length of an end-to-end run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	spans := flag.String("spans-dir", "", "traced run: write the first traced phase's spans as JSON lines into this directory")
	repeat := flag.Int("repeat", 0, "steadiness mode: run the workload this many times, seeds seed, seed+1, …, and print each metric's quartiles")
	flag.Parse()
	watchGC()
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fatal(fmt.Errorf("golden.json: %w", err))
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fatal(fmt.Errorf("usage: perfbench --workload paper51_sweep|n1000_plan|service_mix --seed N --seconds S --trace 0|1 [--repeat K]"))
	}
	if *repeat > 0 {
		if err := steadiness(*name, *seed, *seconds, *trace, *repeat); err != nil {
			fatal(err)
		}
		return
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*name, w, *seed, *spans)
	} else {
		res, err = endToEndRun(*name, w, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setupTimed sets the workload up n times and keeps the last set-up;
// it returns the median set-up time, calibrated by a kernel sample
// before each set-up when calibrate is set.
func setupTimed(w workload, seed uint64, tr *tracer, n int, calibrate bool) (bench, *phase, float64, error) {
	var times, refs []float64
	var b bench
	checks := &phase{}
	for i := 0; i < n; i++ {
		if b != nil {
			b.close()
		}
		if calibrate {
			// Each set-up starts, as in a fresh process, on a collected
			// heap, and so does the kernel.
			runtime.GC()
			refs = append(refs, refSample())
		}
		t0 := time.Now()
		nb, ref, err := w.setup(seed, tr)
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
		checks.merge(ref)
	}
	_, med, _ := quartiles(times)
	if calibrate {
		fmt.Printf("setup_s raw %.4f s (median of %d set-ups: %.4f), calibration factor %.4f (kernel %.3f ms)\n", med, n, times, refFactor(refs), refs)
		med *= refFactor(refs)
	}
	return b, checks, med, nil
}

func endToEndRun(name string, w workload, seed uint64, seconds float64) (*result, error) {
	b, checks, setup, err := setupTimed(w, seed, nil, w.setups, true)
	if err != nil {
		return nil, err
	}
	bud := w.budget(seconds)
	bud.calibrate = true
	ph := b.measure(bud)
	b.close()
	ph.merge(checks)

	// Every timing below is calibrated (calib.go); the raw one is
	// printed beside it.
	out := map[string]metricOut{"setup_s": {setup, "s"}}
	fmt.Printf("workload %s seed %d: %d ops in %.3f s, %d replications computed\n",
		name, seed, len(ph.lat), ph.wall.Seconds(), ph.reps)
	q1, med, q3 := quartiles(ph.refs)
	fmt.Printf("calibration: reference kernel q1/median/q3 %.3f/%.3f/%.3f ms over %d samples (nominal %.1f ms), factors %.3f–%.3f\n",
		q1, med, q3, len(ph.refs), refNominalMs, slices.Min(ph.factor), slices.Max(ph.factor))
	fmt.Printf("setup_s %.4f s (calibrated)\n", setup)
	completed := 0
	cal := make([]float64, len(ph.lat))
	for i, l := range ph.lat {
		if !math.IsInf(l, 1) {
			completed++
		}
		cal[i] = l * ph.factor[i]
	}
	out["sweeps_per_s"] = metricOut{float64(completed) / ph.calWall, "1/s"}
	fmt.Printf("sweeps_per_s %.4f 1/s calibrated, raw %.4f (%d of %d sweeps completed)\n",
		out["sweeps_per_s"].Value, float64(completed)/ph.wall.Seconds(), completed, len(ph.lat))
	ok := true
	pct := func(metric string, xs, raw []float64, p float64, required bool) {
		v, valid := percentile(xs, p)
		if !valid {
			fmt.Printf("%s not reported: n=%d leaves fewer than %d samples beyond it\n", metric, len(xs), minBeyond)
			ok = ok && !required
			return
		}
		r, _ := percentile(raw, p)
		fmt.Printf("%s %.4f ms calibrated, raw %.4f ms (n=%d)\n", metric, v, r, len(xs))
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // failed ops; JSON has no infinity
		}
		if required {
			out[metric] = metricOut{v, "ms"}
		}
	}
	var warm, cold, warmRaw, coldRaw []float64
	for i, l := range ph.lat {
		if ph.warm[i] {
			warm, warmRaw = append(warm, cal[i]), append(warmRaw, l)
		} else {
			cold, coldRaw = append(cold, cal[i]), append(coldRaw, l)
		}
	}
	pct("sweep_p50_ms", cal, ph.lat, 0.5, true)
	pct("sweep_p90_ms", cal, ph.lat, 0.9, false)
	pct("warm_p50_ms", warm, warmRaw, 0.5, true)
	pct("warm_p90_ms", warm, warmRaw, 0.9, false)
	pct("cold_p50_ms", cold, coldRaw, 0.5, true)
	pct("cold_p90_ms", cold, coldRaw, 0.9, false)
	peaks := make([]float64, len(ph.peaks))
	for i, p := range ph.peaks {
		peaks[i] = mb(p)
	}
	_, peak, _ := quartiles(peaks)
	out["peak_live_heap_mb"] = metricOut{peak, "MB"}
	fmt.Printf("peak_live_heap_mb %.4f MB (median over %d blocks of their peak, %.4f–%.4f)\n", peak, len(peaks), slices.Min(peaks), slices.Max(peaks))
	fmt.Printf("failed_frac %.4f frac (%d of %d ops and checks)\n", frac(float64(ph.failed), float64(ph.attempted)), ph.failed, ph.attempted)
	for _, e := range ph.errs {
		fmt.Println("failure:", e)
	}
	if !ok {
		return nil, fmt.Errorf("%s: too few samples for the reported percentiles", name)
	}
	return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: out}, nil
}

// tracedRun runs the same fixed inputs four times: untraced, traced,
// traced, untraced. The per-layer metrics come from the first traced
// phase; the second must repeat its exact counts, and all four must
// produce the same output bytes. Bracketing the traced phases with
// untraced ones cancels the machine's drift, to first order, from the
// tracing overhead.
func tracedRun(name string, w workload, seed uint64, spansDir string) (*result, error) {
	bud := w.traceBudget
	var phases [4]*phase
	var layers map[string]float64
	all := &phase{}
	for i := range phases {
		var tr *tracer
		if i == 1 || i == 2 {
			tr = newTracer()
		}
		b, checks, _, err := setupTimed(w, seed, tr, 1, false)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.reset()
		}
		ph := b.measure(bud)
		b.close()
		all.merge(checks)
		all.merge(ph)
		if i == 1 {
			layers = b.layers(ph, phases[0])
			if spansDir != "" {
				path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
				if err := os.MkdirAll(spansDir, 0o755); err != nil {
					return nil, err
				}
				if err := tr.write(path); err != nil {
					return nil, err
				}
				fmt.Println("spans written to", path)
			}
		}
		phases[i] = ph
	}
	clean, traced, again, after := phases[0], phases[1], phases[2], phases[3]
	for _, ph := range phases[1:] {
		if ph.digest != clean.digest {
			all.fail(fmt.Errorf("traced output bytes differ from the untraced run's: %s / %s / %s / %s",
				clean.digest, traced.digest, again.digest, after.digest))
			break
		}
	}
	keys := make([]string, 0, len(traced.counts))
	for k := range traced.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("exact count %s: %d, repeated %d\n", k, traced.counts[k], again.counts[k])
		if traced.counts[k] != again.counts[k] {
			all.fail(fmt.Errorf("exact count %s differs across two traced runs: %d vs %d", k, traced.counts[k], again.counts[k]))
		}
	}
	untraced := clean.wall + after.wall
	overhead := (traced.wall+again.wall).Seconds()/untraced.Seconds() - 1
	layers["trace.overhead_frac"] = overhead
	fmt.Printf("workload %s seed %d: %d ops per phase; untraced %.3f s + %.3f s, traced %.3f s + %.3f s, tracing overhead %+.2f%%\n",
		name, seed, len(clean.lat), clean.wall.Seconds(), after.wall.Seconds(),
		traced.wall.Seconds(), again.wall.Seconds(), 100*overhead)
	out := map[string]metricOut{}
	for _, m := range perLayer {
		v := layers[m.name]
		out[m.name] = metricOut{v, m.unit}
		fmt.Printf("%s %s %s\n", m.name, fmtN(v), m.unit)
	}
	for _, a := range w.absent {
		fmt.Println("absent:", a)
	}
	fmt.Printf("failed_frac %.4f frac (%d of %d ops and checks)\n", frac(float64(all.failed), float64(all.attempted)), all.failed, all.attempted)
	for _, e := range all.errs {
		fmt.Println("failure:", e)
	}
	return &result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: out}, nil
}

type layerMetric struct{ name, unit string }

// perLayer lists the traced run's metrics in print order.
var perLayer = []layerMetric{
	{"scenario.ms_per_rep", "ms"},
	{"plan.ms_per_rep", "ms"},
	{"plan.share", "frac"},
	{"simulate.ms_per_rep", "ms"},
	{"simulate.visits_per_rep", "count"},
	{"simulate.us_per_visit", "us"},
	{"metrics.ms_per_rep", "ms"},
	{"fold.self_ms_per_op", "ms"},
	{"sink.ms_per_op", "ms"},
	{"sink.bytes_per_op", "bytes"},
	{"gc.alloc_objects_per_rep", "count"},
	{"gc.alloc_bytes_per_rep", "bytes"},
	{"gc.cycles_per_op", "count"},
	{"gc.cpu_frac", "frac"},
	{"cache.hits_per_op", "count"},
	{"cache.misses_per_op", "count"},
	{"cache.joins", "count"},
	{"cache.evictions", "count"},
	{"cache.hit_ratio", "frac"},
	{"dispatch.leases_per_op", "count"},
	{"dispatch.cache_skips_per_op", "count"},
	{"dispatch.expired", "count"},
	{"dispatch.reassigned", "count"},
	{"dispatch.useful_ratio", "frac"},
	{"dispatch.lease_wait_ms", "ms"},
	{"worker.compute_ms_per_cell", "ms"},
	{"worker.result_post_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.bytes_per_op", "bytes"},
	{"server.retained_kb_per_sweep", "KB"},
	{"trace.overhead_frac", "frac"},
}

// steadiness runs the workload k times back to back, each in its own
// process with its own seed, and prints every metric's quartiles and
// its spread (Q3 − Q1 over the median).
func steadiness(name string, seed uint64, seconds float64, trace, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	attempted, failed := 0, 0
	for i := 0; i < k; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		var last string
		sc := bufio.NewScanner(strings.NewReader(string(outb)))
		for sc.Scan() {
			if last != "" {
				fmt.Println("  " + last)
			}
			last = sc.Text()
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return fmt.Errorf("run %d (seed %d): result line: %w", i+1, s, err)
		}
		attempted += r.Attempted
		failed += r.Failed
		for m, v := range r.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
		fmt.Printf("run %d seed %d: correct=%v attempted=%d failed=%d\n", i+1, s, r.Correct, r.Attempted, r.Failed)
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	type summary struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
		Unit   string  `json:"unit"`
	}
	sum := map[string]summary{}
	fmt.Printf("%-30s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, m := range names {
		q1, med, q3 := quartiles(values[m])
		s := summary{med, q1, q3, frac(q3-q1, med), units[m]}
		sum[m] = s
		fmt.Printf("%-30s %12s %12s %12s %7.2f%% %s\n", m, fmtN(q1), fmtN(med), fmtN(q3), 100*s.Spread, units[m])
	}
	line, err := json.Marshal(map[string]any{"workload": name, "runs": k, "attempted": attempted, "failed": failed, "metrics": sum})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

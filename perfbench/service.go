package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/cache"
	"tctp/internal/sweep/dispatch"
	"tctp/internal/sweep/protocol"
	"tctp/internal/sweep/server"
	"tctp/internal/sweep/worker"
)

const (
	serviceClients = 2
	serviceWorkers = 2
	// serviceRoundOps is each client's op count in a round.
	serviceRoundOps = 150
	// serviceRoundsPerSecond sets a run's fixed round count from its
	// seconds, so the op count never depends on the machine's speed.
	serviceRoundsPerSecond = 0.75
	// serviceTraceOps is each client's op count in a traced phase,
	// which is one round.
	serviceTraceOps = 60
)

func serviceRounds(seconds float64) int { return max(1, int(seconds*serviceRoundsPerSecond)) }

// serviceRequest is a service_mix op's 16-cell sweep.
func serviceRequest(base uint64) protocol.SweepRequest {
	return protocol.SweepRequest{
		Preset: "paper51", Algorithms: "btctp,chb",
		Targets: "8,10,12,14", Mules: "2,3", Seeds: 2,
		Horizon: 5_000, Workers: 1, BaseSeed: base,
	}
}

// service is an in-process tctp-server over httptest, with a shared
// cell cache, a dispatch scheduler and two in-process workers of
// concurrency 1.
type service struct {
	store  *cache.Store
	sched  *dispatch.Scheduler
	ts     *httptest.Server
	client *http.Client
	tps    []*http.Transport
	cancel context.CancelFunc
	wg     sync.WaitGroup
	tr     *tracer

	clientBytes atomic.Int64 // request and response body bytes of the clients
}

// startService starts a service and warms it up with the reference
// grid: served cold, served warm and run locally, all three must match
// its pinned digest.
func startService(tr *tracer) (*service, *phase, error) {
	store, err := cache.New(cache.Options{MaxBytes: 1 << 30})
	if err != nil {
		return nil, nil, err
	}
	sched, err := dispatch.New(dispatch.Options{Store: store})
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{Store: store, Dispatch: sched})
	if err != nil {
		sched.Close()
		return nil, nil, err
	}
	s := &service{store: store, sched: sched, ts: httptest.NewServer(srv), tr: tr}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < serviceWorkers; i++ {
		id := fmt.Sprintf("w%d", i+1)
		opts := worker.Options{
			Server: s.ts.URL, ID: id, Concurrency: 1, Poll: 5 * time.Second,
			Client: &http.Client{Transport: s.transport(id, nil)},
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := worker.Run(ctx, opts); err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
			}
		}()
	}
	s.client = &http.Client{Transport: s.transport("", &s.clientBytes)}

	ref := &phase{}
	req := serviceRequest(referenceBase)
	for i := 0; i < 2; i++ {
		out, err := s.sweep(context.Background(), req)
		ref.check("service_mix reference", out, err)
	}
	out, err := localCSV(req)
	ref.check("service_mix reference", out, err)
	return s, ref, nil
}

// transport returns a client transport, traced when the service is; n,
// when non-nil, counts its body bytes.
func (s *service) transport(worker string, n *atomic.Int64) http.RoundTripper {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	s.tps = append(s.tps, tp)
	if s.tr == nil {
		return tp
	}
	return tracedTransport{base: tp, t: s.tr, worker: worker, bytes: n}
}

// close stops the workers, then the server and the scheduler, and
// waits for every goroutine they started.
func (s *service) close() {
	s.cancel()
	s.wg.Wait()
	s.ts.Close()
	for _, tp := range s.tps {
		tp.CloseIdleConnections()
	}
	s.sched.Close()
}

// sweep submits one sweep and reads its result.csv.
func (s *service) sweep(ctx context.Context, req protocol.SweepRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	post, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	post.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(post)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var sub protocol.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return nil, fmt.Errorf("submit response: %w", err)
	}
	get, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/sweeps/"+sub.ID+"/result.csv", nil)
	if err != nil {
		return nil, err
	}
	resp, err = s.client.Do(get)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// localCSV runs a request locally: the output a served sweep must
// match byte for byte.
func localCSV(req protocol.SweepRequest) ([]byte, error) {
	spec, err := build.Spec(req)
	if err != nil {
		return nil, err
	}
	job, err := sweep.Plan(spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := job.Run(context.Background(), sweep.RunOpts{Sinks: []sweep.Sink{sweep.CSV(&buf)}}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serviceBench drives a service with two closed-loop clients. The
// server keeps every sweep it has served, so its heap grows with the
// sweeps served: a run is a fixed number of rounds of a fixed number of
// ops, each round on a freshly started service.
type serviceBench struct {
	svc *service
	in  [serviceClients]*inputs
}

func setupService(seed uint64, tr *tracer) (bench, *phase, error) {
	svc, ref, err := startService(tr)
	if err != nil {
		return nil, nil, err
	}
	b := &serviceBench{svc: svc}
	for c := range b.in {
		// Clients draw base seeds from disjoint ranges, so no cell is
		// shared across clients and the cache counts are exact.
		b.in[c] = newInputs(seed, uint64(c)+2)
	}
	return b, ref, nil
}

func (b *serviceBench) close() { b.svc.close() }

// clientRun is one client's record of a round.
type clientRun struct {
	ph     phase
	colds  map[uint64][32]byte // output of each cold base seed
	digest []byte
}

// runClient runs client c's ops of one round: cold ops submit a fresh
// base seed (every cell misses), warm ops repeat one of the client's
// earlier grids of the round (every cell hits).
func (b *serviceBench) runClient(c, n int) *clientRun {
	cr := &clientRun{colds: map[uint64][32]byte{}}
	in := b.in[c]
	in.newRound()
	h := sha256.New()
	for i := 0; i < n; i++ {
		base, warm := in.op(i)
		ctx := withOp(context.Background(), c*1_000_000+i)
		t0 := time.Now()
		out, err := b.svc.sweep(ctx, serviceRequest(base))
		lat := time.Since(t0)
		sum := sha256.Sum256(out)
		if err == nil {
			if first, ok := cr.colds[base]; ok && first != sum {
				err = fmt.Errorf("client %d op %d: warm result of base seed %d differs from its cold result", c, i, base)
			} else if !ok {
				cr.colds[base] = sum
			}
		}
		h.Write(sum[:])
		cr.ph.add(lat, warm, err)
	}
	cr.digest = h.Sum(nil)
	return cr
}

// refsPerRound is how many kernel samples calibrate a round from each
// side: before it, and before the next round or after the last.
const refsPerRound = 3

func (b *serviceBench) measure(bud budget) *phase {
	ph := &phase{counts: map[string]int64{}}
	h := sha256.New()
	var retained float64
	// ends[r] is the op count after round r; refs[r] the kernel samples
	// taken before round r, and refs[rounds] those after the last.
	var ends []int
	var walls []time.Duration
	var refs [][]float64
	sample := func() {
		if !bud.calibrate {
			return
		}
		// The kernel's allocations must not start a GC cycle over the
		// service's heap, so it runs on a collected one.
		runtime.GC()
		var xs []float64
		for i := 0; i < refsPerRound; i++ {
			xs = append(xs, refSample())
		}
		refs = append(refs, xs)
		ph.refs = append(ph.refs, xs...)
	}
	for r := 0; r < max(bud.rounds, 1); r++ {
		if r > 0 {
			svc, ref, err := startService(b.svc.tr)
			if err != nil {
				ph.fail(err)
				break
			}
			b.svc.close()
			b.svc = svc
			ph.merge(ref)
		}
		sample()
		wall0 := ph.wall
		retained += b.round(ph, h, bud.ops)
		ends = append(ends, len(ph.lat))
		walls = append(walls, ph.wall-wall0)
	}
	sample()
	if bud.calibrate {
		ph.factor = make([]float64, len(ph.lat))
		start := 0
		for r, end := range ends {
			f := refFactor(append(slices.Clone(refs[r]), refs[r+1]...))
			for i := start; i < end; i++ {
				ph.factor[i] = f
			}
			ph.calWall += walls[r].Seconds() * f
			start = end
		}
	}
	ph.digest = fmt.Sprintf("%x", h.Sum(nil))
	ph.retained = retained / float64(len(ph.lat))
	return ph
}

// round runs the clients' ops of one round on the current service and
// folds them into ph; it returns the live heap the round retained.
func (b *serviceBench) round(ph *phase, h hash.Hash, ops int) float64 {
	s := b.svc
	store0, sched0 := s.store.Stats(), s.sched.Stats()
	client0 := s.clientBytes.Load()
	runtime.GC()
	live0 := liveNow()
	takePeak()
	rt0 := readRuntime()
	start := time.Now()
	runs := make([]*clientRun, serviceClients)
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = b.runClient(c, ops)
		}(c)
	}
	wg.Wait()
	ph.wall += time.Since(start)
	ph.rt.add(rt0.to(readRuntime()))
	runtime.GC()
	live1 := liveNow()
	// The forced cycle's finalizer may not have run yet.
	ph.peaks = append(ph.peaks, max(takePeak(), live1))
	for _, cr := range runs {
		ph.lat = append(ph.lat, cr.ph.lat...)
		ph.warm = append(ph.warm, cr.ph.warm...)
		ph.merge(&cr.ph)
		h.Write(cr.digest)
	}

	store1, sched1 := s.store.Stats(), s.sched.Stats()
	ph.reps += int(sched1.RemoteComputed-sched0.RemoteComputed) * serviceRequest(0).Seeds
	for k, v := range map[string]int64{
		"cache.hits":               store1.Hits - store0.Hits,
		"cache.evictions":          store1.Evictions - store0.Evictions,
		"dispatch.queued":          sched1.Queued - sched0.Queued,
		"dispatch.joined":          sched1.Joined - sched0.Joined,
		"dispatch.leased":          sched1.Leased - sched0.Leased,
		"dispatch.cache_skips":     sched1.CacheSkips - sched0.CacheSkips,
		"dispatch.remote_computed": sched1.RemoteComputed - sched0.RemoteComputed,
		"dispatch.expired":         sched1.Expired - sched0.Expired,
		"dispatch.reassigned":      sched1.Reassigned - sched0.Reassigned,
		"server.client_body_bytes": s.clientBytes.Load() - client0,
	} {
		ph.counts[k] += v
	}

	// Every served cold result must equal a local run of its request,
	// computed here, outside the timed loop.
	for _, cr := range runs {
		for base, sum := range cr.colds {
			out, err := localCSV(serviceRequest(base))
			ph.attempted++
			if err == nil && sha256.Sum256(out) != sum {
				err = fmt.Errorf("served result of base seed %d differs from a local Job.Run", base)
			}
			if err != nil {
				ph.fail(err)
			}
		}
	}
	return float64(live1) - float64(live0)
}

func (b *serviceBench) layers(ph, clean *phase) map[string]float64 {
	total, _, count := b.svc.tr.layerTimes()
	ops := float64(len(ph.lat))
	c := ph.counts
	hits := float64(c["cache.hits"])
	misses := float64(c["dispatch.queued"] + c["dispatch.joined"])
	mean := func(name string) float64 { return frac(ms(total[name]), float64(count[name])) }
	return map[string]float64{
		"cache.hits_per_op":            hits / ops,
		"cache.misses_per_op":          misses / ops,
		"cache.joins":                  float64(c["dispatch.joined"]),
		"cache.evictions":              float64(c["cache.evictions"]),
		"cache.hit_ratio":              frac(hits, hits+misses),
		"dispatch.leases_per_op":       float64(c["dispatch.leased"]) / ops,
		"dispatch.cache_skips_per_op":  float64(c["dispatch.cache_skips"]) / ops,
		"dispatch.expired":             float64(c["dispatch.expired"]),
		"dispatch.reassigned":          float64(c["dispatch.reassigned"]),
		"dispatch.useful_ratio":        frac(float64(c["dispatch.remote_computed"]), float64(c["dispatch.leased"])),
		"dispatch.lease_wait_ms":       mean("lease"),
		"worker.compute_ms_per_cell":   mean("compute"),
		"worker.result_post_ms":        mean("worker_result"),
		"server.submit_ms":             mean("submit"),
		"server.result_ms":             mean("result"),
		"server.bytes_per_op":          float64(c["server.client_body_bytes"]) / ops,
		"server.retained_kb_per_sweep": clean.retained / 1024,
		"gc.alloc_objects_per_rep":     frac(clean.rt.allocObjects, float64(clean.reps)),
		"gc.alloc_bytes_per_rep":       frac(clean.rt.allocBytes, float64(clean.reps)),
		"gc.cycles_per_op":             frac(clean.rt.gcCycles, float64(len(clean.lat))),
		"gc.cpu_frac":                  clean.rt.gcCPUFrac(),
	}
}

// serviceAbsent says why the simulation layers read 0 on service_mix.
var serviceAbsent = []string{
	"scenario.*, plan.*, simulate.*, metrics.*, fold.*, sink.*: run inside worker.Run's own sub-jobs, whose specs expose no hook to the caller; they are measured on paper51_sweep and n1000_plan (printed as 0 here)",
	"cache.misses_per_op and cache.joins come from the scheduler (Queued+Joined, Joined): on the remote path the store only probes, and its own Misses/Joins counters stay 0",
	"gc.*_per_rep divide the whole process's allocations, server and clients included, by the replications the workers computed",
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasefold"
	"phasefold/internal/core"
	"phasefold/internal/obs"
	"phasefold/internal/trace"
)

// service_mix: phasefoldd in process behind a loopback listener,
// memory-only, with 4-rank × 100-iteration uploads from three tenants.
// Uploads come in blocks of twelve, shuffled per block from the seed:
// four repeat an earlier trace (cache reads), three are new traces sent
// chunked (the streamed path), one is a new fault-injected trace (the
// salvage and queue path), four are new traces with a declared length
// (the queue path). Two legs: an open loop at a fixed rate, which gives
// the latencies, then a closed loop with one connection per CPU, which
// gives the capacity.
const (
	serviceIters = 100
	// serviceRate is the open loop's arrival rate: a constant of the
	// workload, about half the capacity of a 2-core machine (55-65/s),
	// never derived from capacity measured at run time.
	serviceRate = 30
	// serviceOpenShare of --seconds fixes the open-loop op count; the
	// closed loop runs three times as many ops (about 13 s on 2 cores),
	// long enough for the capacity to average over the machine's short
	// stalls.
	serviceOpenShare = 0.5
	serviceWarmup    = 12
	serviceFaults    = "drop=0.1,chop=0.05"
	// Repeats pick a trace uploaded 8 to 48 distinct traces earlier: old
	// enough to have finished, recent enough to still be cached.
	repeatMinBack = 8
	repeatWindow  = 48
)

type uploadKind int

const (
	kindRepeat uploadKind = iota
	kindChunked
	kindFault
	kindPlain
)

var serviceBlock = []uploadKind{
	kindRepeat, kindRepeat, kindRepeat, kindRepeat,
	kindChunked, kindChunked, kindChunked,
	kindFault,
	kindPlain, kindPlain, kindPlain, kindPlain,
}

// upload is one scheduled request.
type upload struct {
	kind   uploadKind
	fx     int // distinct trace it sends
	tenant string
	id     string // X-Request-Id, which is also the job id
}

// reply is what came back for an upload.
type reply struct {
	code     int
	cache    string
	digest   string
	body     []byte
	err      error
	due      time.Time
	lastByte time.Time // chunked uploads: when the body's last byte was read
	done     time.Time
	snapshot [sha256.Size]byte // new traces: hash of the result's snapshot.json
	snapErr  error
}

// serviceSet is one set-up of the workload: the distinct traces, the
// schedule, and the running daemon.
type serviceSet struct {
	heap   offHeap
	fx     []*fixture
	warm   []upload
	warmR  []reply
	ops    []upload
	svc    *phasefold.AnalysisService
	url    string
	client *http.Client
	spool  string
}

func serviceConfig(spool string, jobsHistory int) phasefold.ServiceConfig {
	cfg := phasefold.DefaultServiceConfig()
	// The benchmark measures analysis capacity, not the default per-tenant
	// quota of 4 uploads/s, which this mix would exceed.
	cfg.TenantRate, cfg.TenantBurst = 1e6, 1<<20
	// One worker and one analysis thread per CPU, as the defaults resolve
	// on a machine whose GOMAXPROCS is its CPU count (see spareProc).
	cfg.Workers = runtime.NumCPU()
	cfg.Analysis.Parallelism = runtime.NumCPU()
	cfg.Decode.Parallelism = runtime.NumCPU()
	cfg.SpoolDir = spool
	// Repeats reach at most repeatWindow distinct traces back, so a cache
	// of 64 results serves every one of them while keeping the process
	// small.
	cfg.CacheEntries = 64
	cfg.Registry = obs.NewRegistry()
	if jobsHistory > 0 {
		cfg.JobsHistory = jobsHistory
	}
	return cfg
}

// setupService generates the schedule and its distinct traces, starts
// the daemon, and warms it with serviceWarmup uploads.
func setupService(seed uint64, nOpen, nClosed int, traced bool) (*serviceSet, error) {
	s := &serviceSet{}
	rng := rand.New(rand.NewSource(int64(mix(seed, 1<<32))))
	// Each kind of upload cycles through the apps on its own, so every
	// run sends each kind with the same app proportions.
	perKind := map[uploadKind]int{}
	newTrace := func(kind uploadKind) (int, error) {
		k := len(s.fx)
		spec := ""
		if kind == kindFault {
			spec = serviceFaults
		}
		app := apps[perKind[kind]%len(apps)]
		perKind[kind]++
		f, err := makeFixture(&s.heap, app, serviceIters, mix(seed, uint64(k)), phasefold.Millisecond, spec)
		if err != nil {
			return 0, err
		}
		s.fx = append(s.fx, f)
		return k, nil
	}
	id := 0
	add := func(list *[]upload, kind uploadKind) error {
		u := upload{kind: kind, tenant: fmt.Sprintf("tenant-%d", id%3), id: fmt.Sprintf("pb-%d-%d", seed, id)}
		id++
		if kind == kindRepeat {
			lo := max(0, len(s.fx)-repeatWindow)
			u.fx = lo + rng.Intn(len(s.fx)-repeatMinBack-lo+1)
		} else {
			k, err := newTrace(kind)
			if err != nil {
				return err
			}
			u.fx = k
		}
		*list = append(*list, u)
		return nil
	}
	for i := 0; i < serviceWarmup; i++ {
		if err := add(&s.warm, kindPlain); err != nil {
			s.release()
			return nil, err
		}
	}
	block := append([]uploadKind(nil), serviceBlock...)
	for len(s.ops) < nOpen+nClosed {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if len(s.ops) == nOpen+nClosed {
				break
			}
			if err := add(&s.ops, kind); err != nil {
				s.release()
				return nil, err
			}
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		s.release()
		return nil, err
	}
	s.spool = filepath.Join(wd, ".bench_build", "spool", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(s.spool, 0o755); err != nil {
		s.release()
		return nil, err
	}
	history := 0
	if traced {
		history = len(s.warm) + len(s.ops) + 16
	}
	if s.svc, err = phasefold.NewAnalysisService(serviceConfig(s.spool, history)); err != nil {
		s.release()
		return nil, err
	}
	addr, err := s.svc.ListenAndServe("127.0.0.1:0")
	if err != nil {
		s.release()
		return nil, err
	}
	s.url = "http://" + addr
	n := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}
	for _, u := range s.warm {
		r := s.send(u, time.Now())
		if r.err != nil || r.code != http.StatusOK {
			s.release()
			return nil, fmt.Errorf("warm-up upload %s: status %d, %v", u.id, r.code, r.err)
		}
		s.warmR = append(s.warmR, r)
	}
	return s, nil
}

func (s *serviceSet) release() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.svc.Drain(ctx) // a forced drain still answers and stops everything
		cancel()
	}
	if s.spool != "" {
		os.RemoveAll(s.spool)
	}
	s.heap.release()
}

// eofClock wraps a chunked upload body and notes when its last byte was
// read by the client transport.
type eofClock struct {
	r  io.Reader
	at atomic.Int64
}

func (e *eofClock) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		e.at.CompareAndSwap(0, time.Now().UnixNano())
	}
	return n, err
}

// send performs one upload; due is when it was scheduled.
func (s *serviceSet) send(u upload, due time.Time) reply {
	f := s.fx[u.fx]
	var body io.Reader = bytes.NewReader(f.data)
	var clock *eofClock
	if u.kind == kindChunked {
		clock = &eofClock{r: bytes.NewReader(f.data)}
		body = clock
	}
	r := reply{due: due}
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/traces", body)
	if err != nil {
		r.err = err
		return r
	}
	if clock != nil {
		req.ContentLength = -1 // unknown length: sent chunked
	}
	req.Header.Set("X-Tenant", u.tenant)
	req.Header.Set("X-Request-Id", u.id)
	resp, err := s.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.code = resp.StatusCode
	r.cache = resp.Header.Get("X-Cache")
	r.digest = resp.Header.Get("X-Trace-Digest")
	if clock != nil {
		if at := clock.at.Load(); at != 0 {
			r.lastByte = time.Unix(0, at)
		}
	}
	if u.kind != kindRepeat && r.err == nil && r.code == http.StatusOK {
		// Fetch one artifact the way a client would after an upload, while
		// the bounded result cache still holds it; it is checked after the
		// timed window.
		r.snapshot, r.snapErr = s.fetchHash("/v1/results/" + r.digest + "/snapshot.json")
	}
	return r
}

// fetchHash GETs path and returns the SHA-256 of a 200 response's body.
func (s *serviceSet) fetchHash(path string) ([sha256.Size]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return [sha256.Size]byte{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return [sha256.Size]byte{}, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, nil
}

// openLoop sends ops at serviceRate, each from its own goroutine at its due
// time, and returns the replies and the dispatcher's p99 lateness.
func (s *serviceSet) openLoop(ops []upload) ([]reply, time.Duration) {
	replies := make([]reply, len(ops))
	late := make(latencies, len(ops))
	gap := time.Second / serviceRate
	var wg sync.WaitGroup
	start := time.Now().Add(gap)
	for i, u := range ops {
		due := start.Add(time.Duration(i) * gap)
		time.Sleep(time.Until(due))
		late[i] = time.Since(due)
		wg.Add(1)
		go func(i int, u upload) {
			defer wg.Done()
			replies[i] = s.send(u, due)
		}(i, u)
	}
	wg.Wait()
	s99 := late.sorted()
	return replies, s99[len(s99)*99/100]
}

// closedLoop sends ops over one connection per CPU, each next upload
// after the previous reply, and returns the replies and the elapsed time.
func (s *serviceSet) closedLoop(ops []upload) ([]reply, time.Duration) {
	replies := make([]reply, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				replies[i] = s.send(ops[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// reportDoc is the part of the daemon's result document the check reads.
type reportDoc struct {
	Outcome  string `json:"outcome"`
	App      string `json:"app"`
	Clusters int    `json:"clusters"`
	Bursts   int    `json:"bursts"`
}

// verify checks every reply after the timed window: each new trace's
// result must carry the reference's app, cluster and burst counts and its
// snapshot.json artifact must be byte-identical to the reference rendered
// by the library (Decode + Analyze + Export on the same bytes); each
// repeat must return the body of the trace's first upload, byte for byte.
// The reference models also give the accuracy of the clean traces.
//
// ops and replies start with the warm-up uploads; only those from index
// from on are counted, the earlier ones serve as first uploads.
func (s *serviceSet) verify(ops []upload, replies []reply, from int, t *tally) accuracy {
	first := map[int]int{} // trace → index of its first upload
	for i, u := range ops {
		if u.kind != kindRepeat {
			first[u.fx] = i
		}
	}
	var fresh []int // new traces whose upload succeeded, checked below
	for i := from; i < len(ops); i++ {
		u, r := ops[i], replies[i]
		switch {
		case r.err != nil || r.code != http.StatusOK:
			t.fail("upload %s (%s): status %d, %v", u.id, s.fx[u.fx].name, r.code, r.err)
		case u.kind != kindRepeat:
			fresh = append(fresh, i)
		default:
			j := first[u.fx]
			switch {
			case replies[j].err != nil:
				t.fail("repeat %s: its first upload failed", u.id)
			case !bytes.Equal(r.body, replies[j].body):
				t.fail("repeat %s (%s, X-Cache %s): body differs from the first upload's", u.id, s.fx[u.fx].name, r.cache)
			case r.cache != "hit" && r.cache != "coalesced":
				t.fail("repeat %s: X-Cache %q, want hit", u.id, r.cache)
			default:
				t.ok()
			}
		}
	}

	// The reference analyses run on one goroutine per CPU; their results
	// are tallied in upload order.
	msgs := make([]string, len(fresh))
	accs := make([]accuracy, len(fresh))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(fresh) {
					return
				}
				f := s.fx[ops[fresh[k]].fx]
				var m *core.Model
				if msgs[k], m = s.checkResult(f, replies[fresh[k]]); msgs[k] == "" && !f.faulted {
					accs[k].add(m, f.truth)
				}
			}
		}()
	}
	wg.Wait()
	var acc accuracy
	for k, i := range fresh {
		if msgs[k] != "" {
			t.fail("upload %s (%s): %s", ops[i].id, s.fx[ops[i].fx].name, msgs[k])
			continue
		}
		t.ok()
		acc.merge(accs[k])
	}
	return acc
}

// checkResult compares one new trace's result with the library's
// reference analysis of the same bytes.
func (s *serviceSet) checkResult(f *fixture, r reply) (string, *core.Model) {
	var doc reportDoc
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return fmt.Sprintf("result document: %v", err), nil
	}
	cfg := serviceConfig("", 0)
	ctx := context.Background()
	tr, rep, err := trace.Decode(ctx, bytes.NewReader(f.data), cfg.Decode)
	if err != nil {
		return fmt.Sprintf("reference decode: %v", err), nil
	}
	m, err := core.Analyze(ctx, tr, cfg.Analysis)
	if err != nil {
		return fmt.Sprintf("reference analysis: %v", err), nil
	}
	want := "ok"
	if m.Degraded() || !rep.Complete() {
		want = "degraded"
	}
	if f.faulted && want != "degraded" {
		return "fault injection left the trace pristine", nil
	}
	if doc.Outcome != want {
		return fmt.Sprintf("outcome %q, want %q", doc.Outcome, want), nil
	}
	if doc.App != m.App || doc.Clusters != m.NumClusters || doc.Bursts != m.NumBursts {
		return fmt.Sprintf("result %s/%d clusters/%d bursts, reference %s/%d/%d",
			doc.App, doc.Clusters, doc.Bursts, m.App, m.NumClusters, m.NumBursts), nil
	}
	if r.snapErr != nil {
		return fmt.Sprintf("fetching snapshot.json: %v", r.snapErr), nil
	}
	var ref bytes.Buffer
	_ = phasefold.SnapshotMetrics(m.Export(tr)).WriteJSON(&ref) // a bytes.Buffer write does not fail
	if sha256.Sum256(ref.Bytes()) != r.snapshot {
		return "snapshot.json differs from the reference analysis", nil
	}
	return "", m
}

// serviceOps fixes the op counts of the two legs from the time budget.
func serviceOps(seconds float64) (open, closed int) {
	open = int(math.Max(1, math.Round(serviceRate*seconds*serviceOpenShare)))
	return open, open * 3
}

func runService(p params) (*result, error) {
	nOpen, nClosed := serviceOps(p.seconds)
	set, setupS, err := timedSetups(func() (*serviceSet, error) {
		return setupService(p.seed, nOpen, nClosed, false)
	}, (*serviceSet).release)
	if err != nil {
		return nil, err
	}
	defer set.release()
	e := &endToEnd{setupS: setupS, tally: &tally{}}
	hp := startHeapPeak()
	openR, late := set.openLoop(set.ops[:nOpen])
	closedR, elapsed := set.closedLoop(set.ops[nOpen:])
	e.peakMB = hp.endMB()

	for _, r := range openR {
		e.lat = append(e.lat, r.done.Sub(r.due))
	}
	// The lag is the streamed path's, over the chunked uploads of both
	// legs: a chunked upload whose streamed result is not pristine falls
	// back to the queue and is timed by the latency metrics like any other
	// miss.
	fallback := 0
	for i, r := range append(append([]reply(nil), openR...), closedR...) {
		if set.ops[i].kind != kindChunked || r.err != nil || r.lastByte.IsZero() {
			continue
		}
		if r.cache == "stream" {
			e.lag = append(e.lag, r.done.Sub(r.lastByte))
		} else {
			fallback++
		}
	}
	completed, records := 0, 0
	for i, r := range closedR {
		if r.err == nil && r.code == http.StatusOK {
			completed++
			records += set.fx[set.ops[nOpen+i].fx].records
		}
	}
	e.opsPerS = float64(completed) / elapsed.Seconds()
	e.recordsPerS = float64(records) / elapsed.Seconds()
	replies := append(append(append([]reply(nil), set.warmR...), openR...), closedR...)
	e.acc = set.verify(append(append([]upload(nil), set.warm...), set.ops...), replies, len(set.warm), e.tally)
	gap := time.Second / serviceRate
	e.lines = append(e.lines,
		fmt.Sprintf("service_mix open loop %d ops at %.0f/s, closed loop %d ops over %d connections in %.2fs; distinct traces %d; generator lateness p99 %.3f ms (gap %.1f ms)",
			nOpen, float64(serviceRate), nClosed, runtime.NumCPU(), elapsed.Seconds(), len(set.fx), ms(late), ms(gap)),
		mixLine(replies[len(set.warm):]),
		fmt.Sprintf("service_mix result_lag over %d chunked uploads answered from the streamed path; %d fell back to the queue", len(e.lag), fallback))
	res := e.result("service_mix")
	if late > gap {
		fmt.Printf("INVALID run: generator lateness %.3f ms exceeds the %.1f ms inter-arrival gap\n", ms(late), ms(gap))
		res.Correct = false
	}
	return res, nil
}

// mixLine reports how the uploads were served.
func mixLine(replies []reply) string {
	byCache := map[string]int{}
	for _, r := range replies {
		byCache[r.cache]++
	}
	keys := make([]string, 0, len(byCache))
	for k := range byCache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	line := fmt.Sprintf("service_mix %d uploads by X-Cache:", len(replies))
	for _, k := range keys {
		line += fmt.Sprintf(" %s=%d", k, byCache[k])
	}
	return line
}

// jobDetail is the part of GET /v1/jobs/{id} the traced run reads.
type jobDetail struct {
	Spans stageReport `json:"spans"`
}

type stageReport struct {
	Name       string         `json:"name"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs"`
	Stages     []stageReport  `json:"stages"`
}

// traceService runs the open-loop leg and reads each upload's stage tree
// from the jobs API for the service layers, then passes every clean new
// trace of the leg serially through the layers' own functions, once
// untraced and once with a span around every call, for the pipeline and
// export layers.
func traceService(p params) (*result, error) {
	nOpen, _ := serviceOps(p.seconds)
	set, err := setupService(p.seed, nOpen, 0, true)
	if err != nil {
		return nil, err
	}
	defer set.release()
	t := newTracedOps()
	ops := set.ops[:nOpen]
	replies, late := set.openLoop(ops)
	t.lateness = ms(late)
	set.verify(append(append([]upload(nil), set.warm...), ops...),
		append(append([]reply(nil), set.warmR...), replies...), len(set.warm), &t.tally)

	stages := map[string][]float64{}
	var hits, streamed, retries float64
	for i, u := range ops {
		switch replies[i].cache {
		case "hit":
			hits++
		case "stream":
			streamed++
		}
		resp, err := set.client.Get(set.url + "/v1/jobs/" + u.id)
		if err != nil {
			return nil, err
		}
		var d jobDetail
		err = json.NewDecoder(resp.Body).Decode(&d)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", u.id, err)
		}
		for _, st := range d.Spans.Stages {
			stages[st.Name] = append(stages[st.Name], float64(st.DurationNS)/1e6)
			if a, ok := st.Attrs["attempts"].(float64); ok && st.Name == "run" {
				retries += a - 1
			}
		}
	}
	n := float64(len(ops))
	t.extra["service.admission.ms"] = median(stages["admission"])
	t.extra["service.spool.ms"] = median(stages["spool"])
	t.extra["service.queue.wait_ms"] = median(stages["queue"])
	t.extra["service.run.ms"] = median(stages["run"])
	t.extra["service.export.ms"] = median(stages["export"])
	t.extra["service.publish.ms"] = median(stages["publish"])
	t.extra["service.cache.hit_ratio"] = hits / n
	t.extra["service.stream.share"] = streamed / n
	t.extra["service.rejected"] = float64(set.svc.Snapshot().Rejected)
	t.extra["runner.retries"] = retries

	cfg := serviceConfig("", 0)
	aopt := cfg.Analysis
	aopt.Parallelism = 1
	dopt := cfg.Decode
	dopt.Parallelism = 1
	ctx := context.Background()
	op := 0
	for _, u := range ops {
		f := set.fx[u.fx]
		if u.kind == kindRepeat || f.faulted {
			continue // a cache read, or the salvage path the layers below do not compose
		}
		t0 := time.Now()
		tr, _, err := trace.Decode(ctx, bytes.NewReader(f.data), dopt)
		var m *core.Model
		if err == nil {
			m, err = core.Analyze(ctx, tr, aopt)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		renderArtifacts(m.Export(tr))
		t.untraced += time.Since(t0)

		t.rec.op = op
		ctr, bursts, err := composeFront(t, ctx, f.data, dopt, aopt)
		var sig signature
		if err == nil {
			sig, err = composeTail(t, ctx, ctr, bursts, aopt)
		}
		if err == nil {
			composeExport(t, m, ctr)
		}
		op++
		t.rec.op = op
		switch {
		case err != nil:
			t.tally.fail("%s composed: %v", f.name, err)
		case sig.diff(signatureOf(m)) != "":
			t.tally.fail("%s composed: %s", f.name, sig.diff(signatureOf(m)))
		default:
			t.tally.ok()
		}
	}
	return t.result("service_mix", p.seed)
}

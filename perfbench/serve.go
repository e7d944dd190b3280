package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ropus/internal/serve"
	"ropus/internal/telemetry"
	"ropus/internal/trace"
	"ropus/internal/workload"
)

const (
	// serveClients is the closed loop's client count, capped at the
	// host's CPU count so the load generator never outnumbers the CPUs.
	serveClients = 2
	// placeEvery makes every placeEvery-th job of a client a place job;
	// the others are translate jobs.
	placeEvery = 4
	// pollInterval is how often a client polls its job's status; it
	// bounds the notification lag a client adds to job latency.
	pollInterval = 2 * time.Millisecond
	// repeatJobs of client 0's first specs are resubmitted to a fresh
	// server to check that identical specs give identical result hashes.
	repeatJobs = placeEvery
	// jobPeakCPUs caps each generated application's demand.
	jobPeakCPUs = 8
	// rssAtJobs is the completed-job count at which serve-mix reads the
	// process's peak memory. The service keeps every job it has seen in
	// memory, so peak memory grows with the jobs completed, and a run
	// that completes more jobs would otherwise look worse.
	rssAtJobs = 150
	// qualityPlaceJobs of each client's place jobs, in submission order,
	// make up serve-mix's plan quality, so it covers the same fleets
	// however many jobs a run completes.
	qualityPlaceJobs = 20
)

// jobCounter counts completed jobs across clients and reads peak memory
// when the count reaches rssAtJobs.
type jobCounter struct {
	n   atomic.Int64
	rss float64 // written once, read after every client has returned
}

func (jc *jobCounter) done() {
	if jc.n.Add(1) == rssAtJobs {
		jc.rss = maxRSSMB()
	}
}

// jobInput is one generated job: a distinct seeded 12-application,
// one-week, 5-minute fleet sent as trace CSV.
type jobInput struct {
	kind string
	csv  []byte
	body []byte
}

// newJob generates client c's n-th job of a run.
func newJob(root *telemetry.Span, seed int64, c, n int) (jobInput, error) {
	kind := serve.KindTranslate
	if n%placeEvery == placeEvery-1 {
		kind = serve.KindPlace
	}
	sp := root.Child("workload.gen")
	set, err := workload.Fleet(workload.FleetConfig{
		Spiky: 1, Bursty: 4, Smooth: 7, Weeks: 1, Interval: trace.DefaultInterval,
		Seed: passSeed(seed, 1+n*serveClients+c),
	})
	if err != nil {
		sp.End()
		return jobInput{}, err
	}
	// Demand is capped so that every application fits a 16-way server
	// on its own (its peak allocation is at most peak/ULow = 16 CPUs):
	// uncapped, about one fleet in 25 has a bursty application no server
	// can host, and its place job fails after a full-length search.
	for i := range set {
		set[i] = set[i].Cap(jobPeakCPUs)
	}
	sp.End()
	var buf bytes.Buffer
	sp = root.Child("trace.write_csv")
	err = trace.WriteCSV(&buf, set)
	sp.End()
	if err != nil {
		return jobInput{}, err
	}
	body, err := json.Marshal(serve.JobSpec{Kind: kind, TracesCSV: buf.String()})
	return jobInput{kind: kind, csv: buf.Bytes(), body: body}, err
}

// server is an in-process planning service on loopback.
type server struct {
	url    string
	dir    string
	cancel context.CancelFunc
	done   chan error
}

func startServer() (*server, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New("127.0.0.1:0", serve.Config{StateDir: dir})
	if err != nil {
		_ = os.RemoveAll(dir) // best effort: the start error is the one to report
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{url: "http://" + srv.Addr(), dir: dir, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Run(ctx) }()
	return s, nil
}

// stop drains the server, waits for it to exit and removes its state.
func (s *server) stop() error {
	s.cancel()
	err := <-s.done
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// client talks to one server over keep-alive connections.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}, url: url}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// get decodes a GET of path into v.
func (c *client) get(path string, v any) error {
	resp, err := c.http.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitReady polls /healthz until the server answers.
func (c *client) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.get("/healthz", nil)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(pollInterval)
	}
}

// errShed marks a submission the server refused for load.
var errShed = errors.New("shed")

// submit posts a job and returns its ID.
func (c *client) submit(body []byte) (string, error) {
	resp, err := c.http.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		return "", errShed
	default:
		msg, _ := io.ReadAll(resp.Body) // best effort: the status already says it failed
		return "", fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return st.ID, nil
}

// await polls a job until it finishes.
func (c *client) await(id string) (serve.JobStatus, error) {
	for {
		var st serve.JobStatus
		if err := c.get("/v1/jobs/"+id, &st); err != nil {
			return st, err
		}
		if st.State == serve.StateDone || st.State == serve.StateFailed {
			return st, nil
		}
		time.Sleep(pollInterval)
	}
}

// metric reads a counter from the server's Prometheus exposition; an
// absent counter reads 0.
func (c *client) metric(name string) (float64, error) {
	resp, err := c.http.Get(c.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, sc.Err()
}

// jobSample is one job as its client saw it.
type jobSample struct {
	kind        string
	traced      bool
	submit      time.Duration
	latency     time.Duration // submit start to the client seeing it finished
	queue, run  time.Duration // server timestamps
	notify      time.Duration // finished to the client seeing it
	servers     int
	hash        string
	err         error
	input       jobInput // kept for client 0's first jobs only
	clientIndex int
}

// runServe measures the serve-mix workload: a closed loop of clients,
// each submitting a job, polling it to completion and only then
// submitting the next.
func runServe(ctx context.Context, o options) *result {
	r := newResult(o)
	var srv *server
	var first jobInput
	setups := make([]time.Duration, 0, setupRepeats)
	phase := readUsage()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				r.problem("stop server: %v", err)
				return r
			}
		}
		runtime.GC() // each set-up starts from the same heap state
		root := r.tracer.StartSpan("setup")
		start := time.Now()
		var err error
		if srv, err = startServer(); err == nil {
			c := newClient(srv.url)
			err = c.waitReady()
			c.close()
		}
		if err == nil {
			first, err = newJob(root, o.seed, 0, 0)
		}
		setups = append(setups, time.Since(start))
		root.End()
		if err != nil {
			r.problem("setup: %v", err)
			if srv != nil {
				_ = srv.stop() // best effort: the set-up error is the one to report
			}
			return r
		}
	}
	r.setupTime(phase, setups)
	defer func() {
		if err := srv.stop(); err != nil {
			r.problem("stop server: %v", err)
		}
	}()

	admin := newClient(srv.url)
	defer admin.close()
	leases0, err1 := admin.metric("lease_acquired_total")
	records0, err2 := admin.metric("checkpoint_records_written_total")
	if err := errors.Join(err1, err2); err != nil {
		r.problem("read /metrics: %v", err)
		return r
	}

	clients := min(serveClients, runtime.NumCPU())
	samples := make([][]jobSample, clients)
	deadline := time.Now().Add(o.seconds)
	var completed jobCounter
	before := readUsage()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples[c] = clientLoop(r.tracer, srv.url, o, c, deadline, first, &completed)
		}(c)
	}
	wg.Wait()
	d := before.to(readUsage())

	var all []jobSample
	var placeServers []float64
	for _, s := range samples {
		all = append(all, s...)
		places := 0
		for _, j := range s {
			if j.kind == serve.KindPlace && j.err == nil && places < qualityPlaceJobs {
				placeServers = append(placeServers, float64(j.servers))
				places++
			}
		}
	}
	var lat, untracedLat, tracedLat []float64
	byKind := map[string][]float64{}
	for _, s := range all {
		r.attempted++
		if s.err != nil {
			r.failed++
			r.problem("job (client %d, %s): %v", s.clientIndex, s.kind, s.err)
			continue
		}
		l := d.steady(s.latency)
		lat = append(lat, l)
		byKind[s.kind] = append(byKind[s.kind], l)
		if s.traced {
			tracedLat = append(tracedLat, l)
		} else {
			untracedLat = append(untracedLat, l)
		}
	}
	if len(lat) == 0 || len(placeServers) == 0 {
		r.problem("no translate-and-place cycle completed")
		return r
	}
	done := float64(len(lat))
	// The mean, not the median: the median is a translate job's latency,
	// which swings with how often it overlaps the other client's place
	// job, and that overlap grows faster than linearly with CPU steal.
	// The mean is clients ÷ throughput and scales with it.
	r.e2e["plan_s"] = sum(lat) / done
	r.e2e["job_p90_s"] = quantile(lat, 0.9)
	r.e2e["jobs_per_s"] = done / d.steady(d.wall)
	r.e2e["cpu_s"] = d.cpu.Seconds() / done
	r.e2e["alloc_mb"] = float64(d.allocBytes) / mb / done
	r.e2e["max_rss_mb"] = completed.rss
	if completed.rss == 0 {
		r.e2e["max_rss_mb"] = maxRSSMB()
	}
	r.e2e["servers"] = sum(placeServers) / float64(len(placeServers))
	r.info["jobs"] = done
	r.info["job_p50_s"] = median(lat)
	r.info["stolen_share"] = d.stolen
	for kind, l := range byKind {
		r.info[kind+"_jobs"] = float64(len(l))
		r.info[kind+"_p50_s"] = median(l)
	}

	r.checkRepeat(samples[0])

	if o.trace {
		leases, err1 := admin.metric("lease_acquired_total")
		records, err2 := admin.metric("checkpoint_records_written_total")
		if err := errors.Join(err1, err2); err != nil {
			r.problem("read /metrics: %v", err)
		}
		r.layers["lease.acquired"] = leases - leases0
		r.layers["checkpoint.records"] = records - records0
		r.serveLayers(ctx, all, d, untracedLat, tracedLat, samples[0])
	}
	return r
}

// clientLoop is one closed-loop client: it submits jobs until the
// deadline, each after the previous one finished.
func clientLoop(tracer *telemetry.Tracer, url string, o options, c int, deadline time.Time, first jobInput, completed *jobCounter) []jobSample {
	cl := newClient(url)
	defer cl.close()
	var out []jobSample
	// Every client runs at least one translate-and-place cycle.
	for n := 0; n < placeEvery || time.Now().Before(deadline); n++ {
		// Job inputs are generated before the job's clock starts: the
		// generation is the client's think time, not service latency.
		traced := o.trace && (n/placeEvery)%2 == 1
		var root *telemetry.Span
		if traced {
			root = tracer.StartSpan("job", telemetry.Int("client", c), telemetry.Int("job", n))
		}
		in := first
		var err error
		if c != 0 || n != 0 {
			in, err = newJob(root, o.seed, c, n)
		}
		s := jobSample{kind: in.kind, traced: traced, clientIndex: c}
		if c == 0 && n < repeatJobs {
			s.input = in
		}
		if err == nil {
			s.err = runJob(cl, root, in, &s)
		} else {
			s.err = err
		}
		root.End()
		if s.err == nil {
			completed.done()
		}
		out = append(out, s)
	}
	return out
}

// runJob submits one job, waits for it and records what the client saw.
func runJob(cl *client, root *telemetry.Span, in jobInput, s *jobSample) error {
	start := time.Now()
	sp := root.Child("serve.submit")
	id, err := cl.submit(in.body)
	sp.End()
	s.submit = time.Since(start)
	if err != nil {
		return err
	}
	sp = root.Child("serve.await")
	st, err := cl.await(id)
	sp.End()
	seen := time.Now()
	s.latency = seen.Sub(start)
	if err != nil {
		return err
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	if st.ResultHash == "" || st.Started == nil || st.Finished == nil {
		return fmt.Errorf("job %s is done without a result hash or timestamps", id)
	}
	s.hash = st.ResultHash
	s.queue = st.Started.Sub(st.Submitted)
	s.run = st.Finished.Sub(*st.Started)
	s.notify = seen.Sub(*st.Finished)
	if in.kind == serve.KindPlace {
		var sum struct {
			ServersUsed int `json:"serversUsed"`
		}
		if err := json.Unmarshal(st.Result, &sum); err != nil || sum.ServersUsed <= 0 {
			return fmt.Errorf("job %s: place result without servers (%v)", id, err)
		}
		s.servers = sum.ServersUsed
	}
	return nil
}

// checkRepeat resubmits client 0's first jobs to a fresh server with an
// empty state directory: identical specs must give identical hashes.
func (r *result) checkRepeat(jobs []jobSample) {
	srv, err := startServer()
	if err != nil {
		r.problem("repeat server: %v", err)
		return
	}
	defer func() {
		if err := srv.stop(); err != nil {
			r.problem("stop repeat server: %v", err)
		}
	}()
	cl := newClient(srv.url)
	defer cl.close()
	if err := cl.waitReady(); err != nil {
		r.problem("repeat server: %v", err)
		return
	}
	for i, s := range jobs {
		if i >= repeatJobs || s.err != nil {
			break
		}
		r.attempted++
		var again jobSample
		if err := runJob(cl, nil, s.input, &again); err != nil || again.hash != s.hash {
			r.failed++
			r.problem("repeated job %d: hash %q, first run %q (%v)", i, again.hash, s.hash, err)
		}
	}
}

// serveLayers reports the service's layers from the clients' samples,
// and the planner layers inside a job from one in-process replica of
// client 0's first place job, traced like a batch pass.
func (r *result) serveLayers(ctx context.Context, all []jobSample, d delta, untraced, traced []float64, first []jobSample) {
	var submit, queue, run, notify []float64
	shed := 0
	for _, s := range all {
		if errors.Is(s.err, errShed) {
			shed++
		}
		if s.err != nil {
			continue
		}
		submit = append(submit, s.submit.Seconds())
		queue = append(queue, s.queue.Seconds())
		run = append(run, s.run.Seconds())
		notify = append(notify, s.notify.Seconds())
	}
	r.layers["serve.submit_s"] = median(submit)
	r.layers["serve.queue_wait_s"] = median(queue)
	r.layers["serve.run_s"] = median(run)
	r.layers["serve.notify_lag_s"] = median(notify)
	r.layers["serve.shed"] = float64(shed)
	r.layers["telemetry.overhead_frac"] = median(traced)/median(untraced) - 1
	r.layers["gc.cycles"] = float64(d.gcCycles)
	r.layers["gc.pause_s"] = d.gcPause.Seconds()
	if d.usedCPU > 0 {
		r.layers["gc.cpu_frac"] = d.gcCPU / d.usedCPU
	}
	r.layers["parallel.utilization"] = d.cpu.Seconds() / (d.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))

	var place *jobSample
	for i := range first[:min(len(first), repeatJobs)] {
		if first[i].kind == serve.KindPlace && first[i].err == nil {
			place = &first[i]
			break
		}
	}
	if place == nil {
		r.problem("no place job to replicate")
		return
	}
	w := &csvPlan{csv: place.input.csv, config: defaultConfig, qos: defaultQoS}
	pc := &passCtx{gaSeed: defaultSeed, reg: telemetry.NewRegistry(), layers: map[string]float64{}}
	pc.hooks = telemetry.New(pc.reg, nil)
	pc.root = r.tracer.StartSpan("pass", telemetry.Int("pass", 0))
	u := readUsage()
	out, err := w.pass(ctx, pc)
	pd := u.to(readUsage())
	pc.root.End()
	r.attempted++
	if err == nil {
		err = r.checkReference(out, 0)
	}
	if err == nil && out.servers != place.servers {
		err = fmt.Errorf("uses %d servers, the served job %d", out.servers, place.servers)
	}
	if err != nil {
		r.failed++
		r.problem("place replica: %v", err)
		return
	}
	spans := r.tracer.Spans()
	self := selfTimes(spans)
	r.onceLayers(self)
	for k, v := range passLayers(pc, pd, self[passRoots(spans)[0]]) {
		// The process-wide figures above describe the service; the
		// replica's would describe one in-process pass.
		if !strings.HasPrefix(k, "gc.") && k != "parallel.utilization" {
			r.layers[k] = v
		}
	}
	r.probe(ctx, out)
}

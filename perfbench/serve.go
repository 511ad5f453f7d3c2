package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"upcbh/internal/arena"
	"upcbh/internal/core"
	"upcbh/internal/serve"
	"upcbh/internal/store"
)

// The serve-mixed session mix, per client, repeats every cycleLen
// sessions: simulate (4 emulated threads) and native (1 thread)
// alternate; one native session in two is driven by an NDJSON stream
// subscriber instead of step requests; the last session of a cycle
// repeats the Options of the cycle's first, completed, session, which
// the service answers from its result cache. Two of every three
// step-driven sessions are simulate sessions, so the step-latency
// median lies inside one mode rather than between two.
const cycleLen = 5

type sessKind int

const (
	kindSimSteps sessKind = iota
	kindNativeSteps
	kindNativeStream
	kindCacheRepeat
)

func kindOf(i int) sessKind {
	switch i % cycleLen {
	case 0, 2:
		return kindSimSteps
	case 1:
		return kindNativeSteps
	case 3:
		return kindNativeStream
	default:
		return kindCacheRepeat
	}
}

// sessionOptions is one bhserve session: a small Plummer problem, so
// the service and store layers, not the force kernel, set its latency.
func sessionOptions(sc scale, native bool, seed uint64) core.Options {
	threads, mode := 4, core.ModeSimulate
	if native {
		threads, mode = 1, core.ModeNative
	}
	o := core.DefaultOptions(sc.serveBodies, threads, core.LevelSubspace)
	o.ExecMode = mode
	o.Steps, o.Warmup = sc.serveSteps, 2
	o.Seed = seed
	return o
}

// createBody is the POST /sims request for opts: the fields that differ
// from the service defaults, plus the thread count.
func createBody(o core.Options) []byte {
	b, _ := json.Marshal(map[string]any{
		"threads": o.Machine.Threads,
		"options": map[string]any{
			"bodies": o.Bodies, "steps": o.Steps, "warmup": o.Warmup, "seed": o.Seed,
			"exec_mode": o.ExecMode, "level": o.Level,
		},
	})
	return b
}

// sessionInfo is the part of the service's session JSON the benchmark
// reads.
type sessionInfo struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	Done      int    `json:"steps_done"`
	CacheHit  bool   `json:"cache_hit"`
	Recovered bool   `json:"recovered"`
}

// client issues requests over at most two loopback connections and
// accounts for every one: a request that fails or is refused (429/503)
// counts as failed.
type client struct {
	base      string
	hc        *http.Client
	tr        *tracer
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) fail(err error) error {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
	c.mu.Unlock()
	return err
}

// do sends one request and reads the whole response; status must match.
func (c *client) do(parent int64, sess, method, path string, body []byte, status int) ([]byte, time.Duration, error) {
	c.attempted.Add(1)
	t0 := time.Now()
	sp := c.tr.begin(parent, "serve", method+" "+routeOf(path), sess)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.tr.end(sp)
		return nil, 0, c.fail(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return nil, 0, c.fail(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		return nil, d, c.fail(err)
	}
	if resp.StatusCode != status {
		return nil, d, c.fail(fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, status, bytes.TrimSpace(data)))
	}
	return data, d, nil
}

// routeOf names a request path by its route, for span names.
func routeOf(path string) string {
	path, _, _ = strings.Cut(path, "?")
	parts := strings.Split(path, "/")
	if len(parts) > 2 && parts[1] == "sims" {
		parts[2] = "{id}"
	}
	return strings.Join(parts, "/")
}

// stream reads a session's NDJSON stream to its end and checks that the
// step numbers rise strictly and end at the last step.
func (c *client) stream(parent int64, sess, id string, steps int) error {
	c.attempted.Add(1)
	sp := c.tr.begin(parent, "serve", "GET /sims/{id}/stream", sess)
	defer c.tr.end(sp)
	resp, err := c.hc.Get(c.base + "/sims/" + id + "/stream")
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.fail(fmt.Errorf("stream %s: status %d", id, resp.StatusCode))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var frames []int
	for sc.Scan() {
		var f struct {
			Step int `json:"step"`
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return c.fail(fmt.Errorf("stream %s: bad frame: %w", id, err))
		}
		frames = append(frames, f.Step)
	}
	if err := sc.Err(); err != nil {
		return c.fail(fmt.Errorf("stream %s: %w", id, err))
	}
	return checkStream(frames, steps)
}

// checkStream holds one stream's frames to the contract: step numbers
// strictly rise and the last frame is the last step.
func checkStream(frames []int, steps int) error {
	for i := 1; i < len(frames); i++ {
		if frames[i] <= frames[i-1] {
			return errCheck("stream frames not monotone: step %d after %d", frames[i], frames[i-1])
		}
	}
	if len(frames) == 0 || frames[len(frames)-1] != steps {
		return errCheck("stream ended at frames %v, want last step %d", frames, steps)
	}
	return nil
}

// timedFS is the store's filesystem seam with each Put timed: a Put is
// temp-file Create through directory SyncDir, serialized under the
// store's lock, so one start time suffices.
type timedFS struct {
	store.FS
	tr    *tracer
	mu    sync.Mutex
	start time.Time
	sp    int64
	puts  []float64
}

func (f *timedFS) Create(path string) (store.File, error) {
	f.mu.Lock()
	f.start = time.Now()
	f.sp = f.tr.begin(0, "store", "Put", filepath.Base(path))
	f.mu.Unlock()
	return f.FS.Create(path)
}

func (f *timedFS) SyncDir(dir string) error {
	err := f.FS.SyncDir(dir)
	f.mu.Lock()
	f.tr.end(f.sp)
	f.puts = append(f.puts, ms(time.Since(f.start)))
	f.mu.Unlock()
	return err
}

func (f *timedFS) putTimes() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64(nil), f.puts...)
}

// service is one in-process bhserve on loopback HTTP.
type service struct {
	srv *serve.Server
	hs  *http.Server
	url string
	wg  sync.WaitGroup
}

func (sc scale) serveConfig(st *store.Store) serve.Config {
	return serve.Config{Shards: 2, Store: st, CkptEvery: sc.serveCkptEvery}
}

func listen(srv *serve.Server) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	return s, nil
}

// drain shuts the service down gracefully.
func (s *service) drain() {
	s.srv.Shutdown()
	_ = s.hs.Shutdown(context.Background())
	s.wg.Wait()
}

// abandon stops the HTTP side only: the service's sessions stay live and
// its store is left exactly as a crashed process would leave it.
func (s *service) abandon() {
	_ = s.hs.Close()
	s.wg.Wait()
}

// loopStats is what the closed loop measured.
type loopStats struct {
	create, step []float64 // ms
	session      []float64 // s, step-driven simulate sessions
	wall         time.Duration
	requests     int64
	stepped      []core.Options // step-driven sessions, in order, for the direct comparison
	streams      int
	cacheHits    int
	alloc        uint64
	gcPause      time.Duration
	queueMax     int
}

// runServe is the serve-mixed workload: a closed loop of two clients
// over small sessions on an in-process bhserve with auto-checkpoints,
// then a crash (the server is abandoned without a drain) and recovery
// of every checkpointed session from the same store.
func runServe(cfg config, out *outcome) error {
	sc, tr := cfg.scale, cfg.tr
	out.headline = "requests_per_s"
	root := tr.begin(0, "bench", "serve-mixed", "")
	defer tr.end(root)
	base, err := os.MkdirTemp(cfg.work, "serve-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(base)

	var fs store.FS = store.OSFS
	var tfs *timedFS
	if tr != nil {
		tfs = &timedFS{FS: store.OSFS, tr: tr}
		fs = tfs
	}

	// The crash fixture comes first, so that fresh-process recoveries of
	// it can interleave with the closed loop's segments.
	crashDir := filepath.Join(base, "crash")
	byKey, err := prepareCrash(cfg, out, crashDir, fs, root)
	if err != nil {
		return err
	}
	cs := &cold{cfg: cfg, name: "serve-mixed", recoverTask: "recover", recoverPath: crashDir}

	// The timed closed loop; between its segments, fresh processes set
	// up a server on an empty store and recover the abandoned one.
	st, err := store.Open(filepath.Join(base, "loop"), store.Options{FS: fs})
	if err != nil {
		return err
	}
	svc, err := listen(serve.New(sc.serveConfig(st)))
	if err != nil {
		return err
	}
	cl := newClient(svc.url, tr)
	ls, err := closedLoop(cfg, out, cl, svc.srv, root, func() error { return cs.round(2) })
	cl.close()
	stats := svc.srv.Stats()
	svc.drain()
	if err != nil {
		return err
	}
	out.set("setup_s", "s", median(cs.setups))
	out.set("recover_s", "s", median(cs.recovers))
	out.check("every checkpointed session recovered", cs.recoverErr)
	out.set("create_ms_p50", "ms", median(ls.create))
	out.set("step_ms_p50", "ms", median(ls.step))
	out.set("step_ms_p99", "ms", quantile(ls.step, 0.99))
	out.set("run_s", "s", median(ls.session))
	out.set("requests_per_s", "1/s", float64(ls.requests)/ls.wall.Seconds())
	out.notef("serve-mixed loop: %.2f s, %d requests, %d step requests, %d creates (%d cache hits), %d streams, %d sessions timed",
		ls.wall.Seconds(), ls.requests, len(ls.step), len(ls.create), ls.cacheHits, ls.streams, len(ls.session))
	if len(ls.step) < sc.minSteps {
		out.check("at least minSteps step requests", errCheck("%d step requests, want >= %d", len(ls.step), sc.minSteps))
	}
	out.check("cache-hit creates answered from cache", checkCacheHits(stats, ls.cacheHits))

	out.notef("serve-mixed: set-ups %.6f s, recoveries %.3f s", cs.setups, cs.recovers)
	if err := resumeRecovered(cfg, out, crashDir, byKey, root); err != nil {
		return err
	}
	out.set("peak_rss_mb", "MB", peakRSSMB())
	out.attempted += cl.attempted.Load()
	out.failed += cl.failed.Load()
	for _, e := range cl.errs {
		out.notef("request error: %s", e)
	}

	if tr == nil {
		return nil
	}
	puts := tfs.putTimes()
	out.set("store.put_ms_p50", "ms", median(puts))
	out.set("store.put_ms_p99", "ms", quantile(puts, 0.99))
	out.notef("store: %d timed puts", len(puts))
	if ck := stats.Checkpoints; ck != nil && ck.Captured > 0 {
		out.set("store.persisted_ratio", "ratio", float64(ck.Persisted)/float64(ck.Captured))
		out.set("store.failed", "count", float64(ck.Failed+ck.Dropped))
	}
	if stats.Sessions.Created > 0 {
		out.set("serve.cache_hit_ratio", "ratio", float64(stats.Sessions.CacheHits)/float64(stats.Sessions.Created))
	}
	out.set("serve.rejected", "count", float64(stats.Sessions.Rejected))
	out.set("serve.queue_max", "count", float64(ls.queueMax))
	out.set("serve.snapshots_dropped", "count", float64(stats.SnapshotsDropped))
	out.set("go.alloc_bytes_per_step", "B", float64(ls.alloc)/float64(len(ls.step)))
	out.set("go.gc_pause_ms", "ms", ms(ls.gcPause))
	return directProbe(tr, root, out, sc, ls)
}

func checkCacheHits(st serve.Stats, want int) error {
	if int(st.Sessions.CacheHits) != want {
		return errCheck("service counted %d cache hits, the clients saw %d", st.Sessions.CacheHits, want)
	}
	return nil
}

// closedLoop runs two clients until the measured time has passed and at
// least minSteps step requests completed. Each client sends its next
// request only when the previous one has been answered. The loop runs
// in segments of a quarter of the measured time; between segments the
// clients pause and between runs, so that the fresh-process samples it
// takes spread over the measured time too.
func closedLoop(cfg config, out *outcome, cl *client, srv *serve.Server, root int64, between func() error) (*loopStats, error) {
	sc, tr := cfg.scale, cfg.tr
	ls := &loopStats{}
	var (
		mu         sync.Mutex
		steps      atomic.Int64
		checkErr   []error
		next       [2]int          // each client's next session number
		cycleFirst [2]core.Options // each client's first Options of its current cycle
	)
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	deadline := time.Now().Add(seconds)
	hardStop := deadline.Add(2*seconds + 30*time.Second)
	more := func() bool {
		now := time.Now()
		return now.Before(hardStop) && (now.Before(deadline) || steps.Load() < int64(sc.minSteps))
	}
	client := func(c int, until time.Time) {
		for ; time.Now().Before(until) && more(); next[c]++ {
			i := next[c]
			kind := kindOf(i)
			seed := cfg.seed*1_000_003 + uint64(c)*100_000 + uint64(i)
			opts := sessionOptions(sc, kind == kindNativeSteps || kind == kindNativeStream, seed)
			if kind == kindCacheRepeat {
				opts = cycleFirst[c]
			}
			if i%cycleLen == 0 {
				cycleFirst[c] = opts
			}
			sess := fmt.Sprintf("c%d-%d", c, i)
			sp := tr.begin(root, "bench", "session", sess)
			rec, err := runSession(cl, sp, sess, opts, kind)
			tr.end(sp)
			mu.Lock()
			if err != nil {
				if errors.Is(err, errCheckFailed) {
					checkErr = append(checkErr, err)
				}
				mu.Unlock()
				continue
			}
			steps.Add(int64(len(rec.steps)))
			ls.create = append(ls.create, rec.create)
			ls.step = append(ls.step, rec.steps...)
			switch kind {
			case kindCacheRepeat:
				ls.cacheHits++
			case kindNativeStream:
				ls.streams++
			case kindSimSteps:
				ls.session = append(ls.session, rec.wall)
				ls.stepped = append(ls.stepped, opts)
			default:
				ls.stepped = append(ls.stepped, opts)
			}
			mu.Unlock()
		}
	}
	for more() {
		until := time.Now().Add(seconds / 4)
		stopSampler := make(chan struct{})
		var samplerDone sync.WaitGroup
		if tr != nil {
			samplerDone.Add(1)
			go func() {
				defer samplerDone.Done()
				tick := time.NewTicker(2 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stopSampler:
						return
					case <-tick.C:
						for _, sh := range srv.Stats().Shards {
							mu.Lock()
							ls.queueMax = max(ls.queueMax, sh.Queue)
							mu.Unlock()
						}
					}
				}
			}()
		}
		settle()
		mw := openMemWindow()
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c, until)
			}(c)
		}
		wg.Wait()
		ls.wall += time.Since(t0)
		alloc, gcPause := mw.close()
		ls.alloc += alloc
		ls.gcPause += gcPause
		close(stopSampler)
		samplerDone.Wait()
		if err := between(); err != nil {
			return nil, err
		}
	}
	ls.requests = cl.attempted.Load() - cl.failed.Load()
	var first error
	if len(checkErr) > 0 {
		first = checkErr[0]
	}
	out.check("session outputs (stream monotone, cache hits, step numbers)", first)
	if len(ls.step) == 0 {
		return nil, fmt.Errorf("closed loop: %w", errNoSamples)
	}
	return ls, nil
}

// errCheckFailed marks a session error that is a failed output check
// rather than a failed request.
var errCheckFailed = errors.New("output check failed")

// sessionRecord is one session's client-side timings.
type sessionRecord struct {
	create float64   // ms
	steps  []float64 // ms
	wall   float64   // s, create through delete
}

// runSession drives one session: create, then S step requests or a
// stream, then result and delete.
func runSession(cl *client, parent int64, sess string, opts core.Options, kind sessKind) (_ *sessionRecord, err error) {
	t0 := time.Now()
	rec := &sessionRecord{}
	data, d, err := cl.do(parent, sess, "POST", "/sims", createBody(opts), http.StatusCreated)
	if err != nil {
		return nil, err
	}
	rec.create = ms(d)
	var si sessionInfo
	if err := json.Unmarshal(data, &si); err != nil {
		return nil, cl.fail(err)
	}
	id := si.ID
	defer func() {
		if err != nil {
			_, _, _ = cl.do(parent, sess, "DELETE", "/sims/"+id, nil, http.StatusNoContent)
		}
	}()
	if si.Key != opts.Key() {
		return nil, fmt.Errorf("%w: session %s built key %q, want %q", errCheckFailed, id, si.Key, opts.Key())
	}
	if (kind == kindCacheRepeat) != si.CacheHit {
		return nil, fmt.Errorf("%w: session %s cache_hit=%t for kind %d", errCheckFailed, id, si.CacheHit, kind)
	}
	switch kind {
	case kindNativeStream:
		if err = cl.stream(parent, sess, id, opts.Steps); err != nil {
			return nil, fmt.Errorf("%w: %v", errCheckFailed, err)
		}
	case kindSimSteps, kindNativeSteps:
		for k := 1; k <= opts.Steps; k++ {
			var body []byte
			body, d, err = cl.do(parent, sess, "POST", "/sims/"+id+"/step?k=1", nil, http.StatusOK)
			if err != nil {
				return nil, err
			}
			rec.steps = append(rec.steps, ms(d))
			var snap struct {
				Step int `json:"step"`
			}
			if err = json.Unmarshal(body, &snap); err != nil || snap.Step != k {
				err = fmt.Errorf("%w: session %s step %d answered step %d (%v)", errCheckFailed, id, k, snap.Step, err)
				return nil, err
			}
		}
	}
	if _, _, err = cl.do(parent, sess, "GET", "/sims/"+id+"/result", nil, http.StatusOK); err != nil {
		return nil, err
	}
	if _, _, err = cl.do(parent, sess, "DELETE", "/sims/"+id, nil, http.StatusNoContent); err != nil {
		return nil, err
	}
	rec.wall = sec(time.Since(t0))
	return rec, nil
}

// prepareCrash checkpoints a fixed set of sessions mid-run in a store at
// dir and abandons the server without a drain, leaving the store as a
// crashed bhserve would. It returns the sessions' Options by key.
func prepareCrash(cfg config, out *outcome, dir string, fs store.FS, root int64) (map[string]core.Options, error) {
	sc, tr := cfg.scale, cfg.tr
	st, err := store.Open(dir, store.Options{FS: fs})
	if err != nil {
		return nil, err
	}
	svc, err := listen(serve.New(sc.serveConfig(st)))
	if err != nil {
		return nil, err
	}
	cl := newClient(svc.url, tr)
	defer func() {
		out.attempted += cl.attempted.Load()
		out.failed += cl.failed.Load()
		cl.close()
	}()
	byKey := map[string]core.Options{}
	for i := 0; i < sc.recoverSess; i++ {
		opts := sessionOptions(sc, i%2 == 1, cfg.seed*1_000_003+900_000+uint64(i))
		byKey[opts.Key()] = opts
		data, _, err := cl.do(root, "crash", "POST", "/sims", createBody(opts), http.StatusCreated)
		if err != nil {
			return nil, err
		}
		var si sessionInfo
		if err := json.Unmarshal(data, &si); err != nil {
			return nil, err
		}
		for k := 0; k <= sc.serveCkptEvery; k++ {
			if _, _, err := cl.do(root, si.ID, "POST", "/sims/"+si.ID+"/step?k=1", nil, http.StatusOK); err != nil {
				return nil, err
			}
		}
		// Wait for this session's checkpoint to be durable, so the crash
		// finds exactly recoverSess sessions in the store.
		for deadline := time.Now().Add(30 * time.Second); ; {
			ck := svc.srv.Stats().Checkpoints
			if ck.Persisted+ck.Failed+ck.Dropped >= uint64(i+1) {
				if ck.Persisted != uint64(i+1) {
					return nil, fmt.Errorf("checkpoint of session %d not persisted: %+v", i, *ck)
				}
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("checkpoint of session %d not persisted in 30 s", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cl.close()
	svc.abandon()
	return byKey, nil
}

// resumeRecovered steps every recovered session to completion (one in
// three by stream) and compares each final state with an uninterrupted
// run: byte-identical Results for simulate sessions, identical final
// bodies and interaction counts for one-thread native sessions.
func resumeRecovered(cfg config, out *outcome, dir string, byKey map[string]core.Options, root int64) error {
	sc := cfg.scale
	if cfg.tr != nil {
		if err := storeProbe(cfg.tr, root, out, dir); err != nil {
			return err
		}
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	rsvc, err := listen(serve.New(sc.serveConfig(st)))
	if err != nil {
		return err
	}
	defer rsvc.drain()
	cl := newClient(rsvc.url, cfg.tr)
	defer func() {
		out.attempted += cl.attempted.Load()
		out.failed += cl.failed.Load()
		cl.close()
	}()
	data, _, err := cl.do(root, "recover", "GET", "/sims", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var list struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return err
	}
	var rms []float64
	var mismatch []string
	theta := 0.0
	for i, si := range list.Sessions {
		opts, ok := byKey[si.Key]
		if !ok || !si.Recovered || si.Done != sc.serveCkptEvery {
			mismatch = append(mismatch, fmt.Sprintf("%s: unexpected recovered session %+v", si.ID, si))
			continue
		}
		if i%3 == 2 {
			if err := cl.stream(root, si.ID, si.ID, opts.Steps); err != nil {
				mismatch = append(mismatch, err.Error())
				continue
			}
		} else {
			for k := si.Done; k < opts.Steps; k++ {
				if _, _, err := cl.do(root, si.ID, "POST", "/sims/"+si.ID+"/step?k=1", nil, http.StatusOK); err != nil {
					return err
				}
			}
		}
		snapData, _, err := cl.do(root, si.ID, "GET", "/sims/"+si.ID+"/snapshot?bodies=1", nil, http.StatusOK)
		if err != nil {
			return err
		}
		resData, _, err := cl.do(root, si.ID, "GET", "/sims/"+si.ID+"/result", nil, http.StatusOK)
		if err != nil {
			return err
		}
		if _, _, err := cl.do(root, si.ID, "DELETE", "/sims/"+si.ID, nil, http.StatusNoContent); err != nil {
			return err
		}
		var snap core.Snapshot
		var res core.Result
		if err := json.Unmarshal(snapData, &snap); err != nil {
			return err
		}
		if err := json.Unmarshal(resData, &res); err != nil {
			return err
		}
		res.Bodies = snap.Bodies
		sp := cfg.tr.begin(root, "bench", "check-recovered", si.ID)
		ref, err := uninterrupted(opts)
		if err == nil {
			err = compareRecovered(opts, &res, ref)
		}
		cfg.tr.end(sp)
		if err != nil {
			mismatch = append(mismatch, fmt.Sprintf("%s: %v", si.ID, err))
			continue
		}
		rms = append(rms, forceErrRMS(snap.Bodies, opts.Eps, opts.Dt, sc.forceSample, cfg.seed))
		theta = opts.Theta
	}
	if len(list.Sessions) != sc.recoverSess {
		mismatch = append(mismatch, fmt.Sprintf("listed %d recovered sessions, want %d", len(list.Sessions), sc.recoverSess))
	}
	var err2 error
	if len(mismatch) > 0 {
		err2 = errCheck("%s", strings.Join(mismatch, "; "))
	}
	out.check("recovered results = uninterrupted runs", err2)
	if len(rms) == 0 {
		return fmt.Errorf("no recovered session completed")
	}
	out.set("force_err_rms", "ratio", median(rms))
	out.check("force error within theta tolerance", checkForceErr(median(rms), theta))
	return nil
}

// uninterrupted runs opts start to finish through core directly.
func uninterrupted(opts core.Options) (*core.Result, error) {
	sim, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	return sim.Run()
}

// compareRecovered holds a recovered session's final state to the
// uninterrupted run: the whole Result byte for byte under simulate
// (every modelled time and count is deterministic); under native the
// wall-clock phases differ, so the final bodies and the interaction
// count must match exactly (one thread: the arithmetic is sequential).
func compareRecovered(opts core.Options, got, want *core.Result) error {
	if opts.ExecMode == core.ModeSimulate {
		gb, err := json.Marshal(got)
		if err != nil {
			return err
		}
		wb, err := json.Marshal(want)
		if err != nil {
			return err
		}
		if !bytes.Equal(gb, wb) {
			return errCheck("simulate result differs from the uninterrupted run:\n got %s\nwant %s", gb, wb)
		}
	}
	if got.Interactions != want.Interactions {
		return errCheck("interactions %d, uninterrupted run %d", got.Interactions, want.Interactions)
	}
	if len(got.Bodies) != len(want.Bodies) {
		return errCheck("%d final bodies, uninterrupted run %d", len(got.Bodies), len(want.Bodies))
	}
	for i := range got.Bodies {
		if got.Bodies[i] != want.Bodies[i] {
			return errCheck("body %d differs from the uninterrupted run: %+v vs %+v", i, got.Bodies[i], want.Bodies[i])
		}
	}
	return nil
}

// storeProbe times the store's recovery scan and the container reads
// directly on the abandoned store.
func storeProbe(tr *tracer, root int64, out *outcome, dir string) error {
	var scans []float64
	for i := 0; i < 3; i++ {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		sp := tr.begin(root, "store", "NewestAll", "probe")
		st.NewestAll()
		tr.end(sp)
		scans = append(scans, ms(time.Since(t0)))
	}
	out.set("store.newest_all_ms", "ms", median(scans))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var reads []float64
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		t0 := time.Now()
		sp := tr.begin(root, "arena", "ReadCheckpoint", e.Name())
		_, err = arena.ReadCheckpoint(bytes.NewReader(raw))
		tr.end(sp)
		reads = append(reads, ms(time.Since(t0)))
		if err != nil {
			out.check("stored containers read back", err)
		}
	}
	out.set("arena.read_ms", "ms", median(reads))
	return nil
}

// directProbe runs the loop's first step-driven sessions through core
// directly (Step + SnapshotMeta, what a step request does on the shard)
// for the service overhead, and times the session-layer calls a service
// makes: Snapshot, SnapshotMeta, Checkpoint, Restore.
func directProbe(tr *tracer, root int64, out *outcome, sc scale, ls *loopStats) error {
	var direct []float64
	for i, opts := range ls.stepped {
		if i >= 24 {
			break
		}
		sess := fmt.Sprintf("direct-%d", i)
		sim, _, _, err := setupSim(tr, root, sess, opts)
		if err != nil {
			return err
		}
		for k := 0; k < opts.Steps; k++ {
			t0 := time.Now()
			sp := tr.begin(root, "core", "Step", sess)
			err := sim.Step(1)
			tr.end(sp)
			if err == nil {
				sp = tr.begin(root, "core", "SnapshotMeta", sess)
				_, err = sim.SnapshotMeta()
				tr.end(sp)
			}
			if err != nil {
				sim.Release()
				return err
			}
			direct = append(direct, ms(time.Since(t0)))
		}
		sim.Release()
	}
	// The direct run keeps the loop's 2:1 mix of simulate and native
	// step-driven sessions, so the two medians describe the same mix.
	out.set("serve.overhead_ms", "ms", median(ls.step)-median(direct))

	opts := sessionOptions(sc, false, 1)
	sim, _, _, err := setupSim(tr, root, "probe", opts)
	if err != nil {
		return err
	}
	defer sim.Release()
	if err := sim.Step(sc.serveCkptEvery); err != nil {
		return err
	}
	var snaps, metas, ckpts, restores []float64
	var ckpt bytes.Buffer
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		sp := tr.begin(root, "core", "Snapshot", "probe")
		_, err := sim.Snapshot()
		tr.end(sp)
		snaps = append(snaps, ms(time.Since(t0)))
		t0 = time.Now()
		sp = tr.begin(root, "core", "SnapshotMeta", "probe")
		_, err2 := sim.SnapshotMeta()
		tr.end(sp)
		metas = append(metas, ms(time.Since(t0)))
		ckpt.Reset()
		t0 = time.Now()
		sp = tr.begin(root, "core", "Checkpoint", "probe")
		err3 := sim.Checkpoint(&ckpt)
		tr.end(sp)
		ckpts = append(ckpts, ms(time.Since(t0)))
		t0 = time.Now()
		sp = tr.begin(root, "core", "Restore", "probe")
		rs, err4 := core.Restore(bytes.NewReader(ckpt.Bytes()))
		tr.end(sp)
		restores = append(restores, ms(time.Since(t0)))
		if err := errors.Join(err, err2, err3, err4); err != nil {
			return err
		}
		rs.Release()
	}
	out.set("core.snapshot_ms", "ms", median(snaps))
	out.set("core.snapshot_meta_ms", "ms", median(metas))
	out.set("core.checkpoint_ms", "ms", median(ckpts))
	out.set("core.checkpoint_bytes", "B", float64(ckpt.Len()))
	out.set("core.restore_ms", "ms", median(restores))
	return nil
}

// Package serve is the multi-tenant simulation service: it exposes the
// steppable session lifecycle of internal/core (create / step / snapshot
// / stream / finish) over HTTP, multiplexing many concurrent sessions
// onto a fixed set of worker shards.
//
// Architecture (DESIGN.md §12):
//
//   - Each session is placed on the least-loaded shard at admission and
//     stays there. Each shard is one goroutine-owned loop with a bounded
//     request queue; every operation on a session executes on its
//     shard's loop, so session state is single-writer and lock-free.
//   - A full shard queue rejects immediately (HTTP 429 with Retry-After)
//     instead of blocking the handler: explicit backpressure.
//   - Each session has a fan-out hub: one stepper drives the simulation,
//     N subscribers each consume a private buffered snapshot channel with
//     a drop-oldest policy for slow consumers.
//   - Completed runs land in a shared bench.Runner cache keyed by
//     Options.Key(): an identical later create is served from cache
//     without re-simulating (the create response carries cache_hit).
//   - Shutdown drains gracefully: admissions stop (503), steppers park,
//     in-flight queued requests finish, and every live session is
//     Finish()ed and Release()d.
package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"upcbh/internal/bench"
	"upcbh/internal/core"
	"upcbh/internal/store"
)

// Config sizes the service. Zero values mean defaults.
type Config struct {
	// Shards is the number of worker shards (default: GOMAXPROCS).
	Shards int
	// QueueDepth bounds each shard's request queue (default 64). When a
	// shard's queue is full, requests are rejected with a backpressure
	// status instead of blocking.
	QueueDepth int
	// SubBuffer is the per-subscriber snapshot buffer of the fan-out hub
	// (default 8). A subscriber that falls more than SubBuffer snapshots
	// behind starts losing its oldest frames.
	SubBuffer int
	// StreamEvery is the default stepping interval of the stream
	// endpoint (default 1): the stepper pauses and publishes a snapshot
	// every StreamEvery time-steps.
	StreamEvery int
	// Runner is the shared result cache (and its worker-pool discipline
	// for anything the service runs through it). A fresh one is created
	// when nil.
	Runner *bench.Runner
	// Logf receives progress lines (cache hits, drains, stepper faults);
	// nil silences them.
	Logf func(format string, args ...any)

	// Store is the durable checkpoint store (DESIGN.md §14). Nil disables
	// durability: no auto-checkpoints, no startup recovery, and restores
	// never consult disk.
	Store *store.Store
	// CkptEvery auto-checkpoints each live session every time it advances
	// this many steps (0 = disabled).
	CkptEvery int
	// CkptInterval auto-checkpoints a live session when this much
	// wall clock has passed since its last capture. Evaluated at step
	// boundaries — an idle session's state isn't changing, so there is
	// nothing new to capture (0 = disabled).
	CkptInterval time.Duration
	// CkptRetries bounds the persister's retries after a transient write
	// failure (default 3; ENOSPC never retries).
	CkptRetries int
	// CkptBackoff is the persister's initial retry backoff, doubling per
	// attempt (default 50ms).
	CkptBackoff time.Duration
	// MaxRestoreBytes caps the POST /sims/restore upload body
	// (default 1 GiB); larger uploads get 413.
	MaxRestoreBytes int64
}

func (c *Config) fillDefaults() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SubBuffer <= 0 {
		c.SubBuffer = 8
	}
	if c.StreamEvery <= 0 {
		c.StreamEvery = 1
	}
	if c.Runner == nil {
		c.Runner = bench.NewRunner(0)
	}
	if c.CkptRetries <= 0 {
		c.CkptRetries = 3
	}
	if c.CkptBackoff <= 0 {
		c.CkptBackoff = 50 * time.Millisecond
	}
	if c.MaxRestoreBytes <= 0 {
		c.MaxRestoreBytes = 1 << 30
	}
}

// session is one live (or completed) simulation owned by a shard. All
// fields below the hub are owned by the shard loop: they are only read
// or written from tasks executing on session.shard.
type session struct {
	id    string
	key   string
	shard *shard
	hub   *hub

	opts      core.Options
	created   time.Time
	cacheHit  bool // born completed from the Options.Key() cache
	recovered bool // re-admitted from the store at boot
	fromStore bool // restore answered from the store, not the upload

	// Shard-loop-owned state.
	sim      *core.Sim    // nil for cache-hit sessions
	result   *core.Result // set once finished
	finished bool
	released bool
	stepping bool // a stream stepper is driving this session

	// loaded: the session holds one unit of its shard's load. Guarded by
	// Server.mu; cleared by the first unplace.
	loaded bool

	// Auto-checkpoint cadence (shard-loop-owned).
	lastCkptStep int
	lastCkptTime time.Time
}

// Server is the session service. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	cfg    Config
	runner *bench.Runner
	shards []*shard

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	draining bool
	drainCh  chan struct{} // closed when draining starts

	steppers sync.WaitGroup

	// Checkpoint persistence pipeline (nil when cfg.Store is nil).
	persistCh   chan ckptJob
	persistDone chan struct{}

	// Counters (mu-guarded; small and cold).
	created     uint64
	cacheHits   uint64
	released    uint64
	rejected    uint64
	recovered   uint64
	snapDropped uint64 // fan-out drops of released sessions: keeps SnapshotsDropped monotone
	ckpt        CkptStats
}

// New builds and starts a Server: the shard loops are running on return.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		runner:   cfg.Runner,
		sessions: make(map[string]*session),
		drainCh:  make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg.QueueDepth)
		s.shards = append(s.shards, sh)
		go sh.run(cfg.Logf)
	}
	if cfg.Store != nil {
		s.persistCh = make(chan ckptJob, persistQueueDepth)
		s.persistDone = make(chan struct{})
		go s.persister()
		// Startup recovery: re-admit every recoverable session before the
		// caller wires up the HTTP listener.
		s.recoverSessions()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// submit routes fn to sh with admission control: draining beats busy,
// and a full queue is an immediate rejection. The caller waits on the
// returned task's done channel before reading fn's outputs.
func (s *Server) submit(sh *shard, fn func()) (*task, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.mu.Unlock()
	t, err := sh.trySubmit(fn)
	if err != nil {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
	}
	return t, err
}

// lookup finds a session by ID.
func (s *Server) lookup(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// place binds sess to the shard with the fewest sessions that can still
// step (ties go to the lowest shard id) and charges that shard one unit
// of load, so a new session never joins a busy shard while another sits
// idle (DESIGN.md §12.1). The binding is fixed for the session's life.
// s.mu must be held.
func (s *Server) place(sess *session) {
	sh := s.shards[0]
	for _, c := range s.shards[1:] {
		if c.load < sh.load {
			sh = c
		}
	}
	sess.shard = sh
	sh.load++
	sess.loaded = true
}

// unplace gives the session's unit of load back, the first time it can
// no longer step: it finished, was released, or failed admission. Later
// calls are no-ops. s.mu must be held.
func (s *Server) unplace(sess *session) {
	if sess.loaded {
		sess.loaded = false
		sess.shard.load--
	}
}

// admit assigns sess its ID, places it, runs build on its shard's loop,
// then registers it. ID and placement share one critical section, so
// two concurrent admissions cannot both pick the same idle shard. The
// registration is atomic with the draining check: Shutdown flips
// draining under mu before sweeping, so either the session lands in the
// registry in time for the sweep, or admit observes draining and tears
// it down itself — unregistered and unreturned, this goroutine is its
// only owner, so no shard task is needed. A session that fails
// admission, or is born finished (a cache hit), gives its load back
// here.
func (s *Server) admit(sess *session, build func() error) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errDraining
	}
	s.nextID++
	sess.id = fmt.Sprintf("s-%d", s.nextID)
	s.place(sess)
	s.mu.Unlock()

	var buildErr error
	t, err := s.submit(sess.shard, func() { buildErr = build() })
	if err == nil {
		<-t.done
		err = buildErr
	}
	s.mu.Lock()
	drained := err == nil && s.draining
	if drained {
		err = errDraining
	}
	if err != nil || sess.finished {
		s.unplace(sess)
	}
	if err == nil {
		s.sessions[sess.id] = sess
		s.created++
		if sess.cacheHit {
			s.cacheHits++
		}
	}
	s.mu.Unlock()
	if drained {
		if sess.sim != nil {
			sess.sim.Release()
		}
		sess.hub.close()
	}
	return err
}

// createSession admits one new session: assigns an ID, places it on the
// least-loaded shard, and — on that shard's loop — either serves it from
// the Options.Key() cache (no simulation is built) or constructs the
// live core.Sim. The sessionInfo is captured on the shard loop in the
// same task, so creation is a single submission and the response payload
// cannot be lost to a later backpressure rejection. The returned session
// is registered; err reports admission (backpressure/draining) or
// construction (invalid options) failures.
func (s *Server) createSession(opts core.Options) (*session, sessionInfo, error) {
	var si sessionInfo
	sess := &session{
		key:     opts.Key(),
		hub:     newHub(),
		opts:    opts,
		created: time.Now(),
	}
	// Interval cadence counts from admission, not the zero time.
	sess.lastCkptTime = sess.created
	err := s.admit(sess, func() error {
		// Content-addressed reuse: an identical completed run serves
		// this session without building (or stepping) a simulation.
		if res, ok := s.runner.Lookup(opts); ok {
			sess.cacheHit = true
			sess.result = res
			sess.finished = true
			sess.hub.close()
			s.logf("session %s: cache hit for %s", sess.id, sess.key)
		} else {
			sim, err := core.New(opts)
			if err != nil {
				return err
			}
			sess.sim = sim
		}
		si = sessionInfo{
			ID:       sess.id,
			Key:      sess.key,
			Shard:    sess.shard.id,
			Steps:    opts.Steps,
			Finished: sess.finished,
			CacheHit: sess.cacheHit,
		}
		if sess.finished {
			si.Done = opts.Steps
		}
		return nil
	})
	if err != nil {
		return nil, si, err
	}
	return sess, si, nil
}

// restoreSession admits a session rebuilt from a checkpoint container
// (POST /sims/restore): core.Restore reconstructs the paused core.Sim at
// its captured step on the shard loop, and the session resumes exactly
// where the checkpointed run paused — stepping, streaming, and the final
// Result are byte-identical to the uninterrupted run. Restores never
// consult the result cache: the point of restoring is the live,
// resumable simulation (its completed Result still feeds the cache
// through the ordinary finalize path).
//
// With a store configured the restore is durability-aware in both
// directions: an upload whose (key, step) is already stored is answered
// from the store's validated copy (from_store in the response), and a
// novel valid upload is persisted asynchronously so a crash right after
// the restore can still recover the session.
func (s *Server) restoreSession(upload []byte) (*session, sessionInfo, error) {
	var si sessionInfo
	data := upload
	fromStore := false
	var peekKey string
	var peekStep int
	if st := s.cfg.Store; st != nil {
		if k, step, err := core.PeekCheckpointHeader(upload); err == nil {
			peekKey, peekStep = k, step
			if stored, serr := st.Get(k, step); serr == nil {
				data = stored
				fromStore = true
			}
		}
	}

	sess := &session{
		hub:     newHub(),
		created: time.Now(),
	}
	err := s.admit(sess, func() error {
		sim, err := core.Restore(bytes.NewReader(data))
		if err != nil && fromStore {
			// The store's copy passed format validation but failed the
			// deeper restore checks: quarantine it and fall back to the
			// client's own upload.
			s.cfg.Store.Quarantine(peekKey, peekStep)
			fromStore = false
			sim, err = core.Restore(bytes.NewReader(upload))
		}
		if err != nil {
			return err
		}
		sess.sim = sim
		sess.fromStore = fromStore
		sess.opts = sim.Options()
		sess.key = sess.opts.Key()
		sess.lastCkptStep = sim.StepsDone()
		sess.lastCkptTime = time.Now()
		if s.cfg.Store != nil && !fromStore {
			s.enqueueCkptLocked(ckptJob{key: sess.key, step: sim.StepsDone(), data: upload})
		}
		s.logf("session %s: restored at step %d (%s)", sess.id, sim.StepsDone(), sess.key)
		si = sessionInfo{
			ID:        sess.id,
			Key:       sess.key,
			Shard:     sess.shard.id,
			Steps:     sess.opts.Steps,
			Done:      sim.StepsDone(),
			FromStore: fromStore,
		}
		return nil
	})
	if err != nil {
		return nil, si, err
	}
	return sess, si, nil
}

// finalizeLocked completes a session whose schedule has run out (or a
// cache-hit session's live twin): collects the Result, feeds the shared
// cache, and closes the fan-out hub so every subscriber's stream ends.
// Must run on the session's shard loop. Only a full-schedule result is
// memoized — a partial (drained) run covers fewer steps than the key
// promises and would poison the cache.
func (s *Server) finalizeLocked(sess *session) error {
	if sess.finished || sess.sim == nil {
		return nil
	}
	full := sess.sim.StepsDone() == sess.opts.Steps
	res, err := sess.sim.Finish()
	if err != nil {
		return err
	}
	sess.result = res
	sess.finished = true
	s.mu.Lock()
	s.unplace(sess)
	s.mu.Unlock()
	if full {
		s.runner.Memoize(sess.opts, res)
	}
	sess.hub.close()
	return nil
}

// stepLocked advances a session k steps and publishes the resulting
// snapshot to its hub; when the schedule completes it finalizes the
// session (feeding the cache). Must run on the session's shard loop.
// The snapshot's cost tracks demand: the full body gather is the
// O(n log n) bulk of a Snapshot, so it runs only when this caller asked
// for bodies or a stream subscriber is listening (subscriptions are
// taken on this shard loop, so the count cannot change under us);
// otherwise the bodies-free SnapshotMeta path serves both the step
// response and the hub publication.
func (s *Server) stepLocked(sess *session, k int, wantBodies bool) (*core.Snapshot, error) {
	if sess.released {
		return nil, core.ErrReleased
	}
	if sess.finished {
		return nil, core.ErrFinished
	}
	if err := sess.sim.Step(k); err != nil {
		return nil, err
	}
	var (
		snap *core.Snapshot
		err  error
	)
	if wantBodies || sess.hub.subscriberCount() > 0 {
		snap, err = sess.sim.Snapshot()
	} else {
		snap, err = sess.sim.SnapshotMeta()
	}
	if err != nil {
		return nil, err
	}
	sess.hub.publish(snap)
	if sess.sim.StepsDone() >= sess.opts.Steps {
		if err := s.finalizeLocked(sess); err != nil {
			return nil, err
		}
	} else {
		// Crash safety: capture a durable checkpoint when one is due.
		// Completed runs are skipped — their Result lands in the cache and
		// the store's retention will age their entries out.
		s.maybeAutoCheckpointLocked(sess)
	}
	return snap, nil
}

// ensureStepperLocked starts the session's stream stepper if none is
// driving it yet: one goroutine that repeatedly submits "advance every
// steps and publish" tasks to the session's shard until the schedule
// completes or the server drains. One stepper per session, however many
// stream subscribers attach. Must run on the session's shard loop.
func (s *Server) ensureStepperLocked(sess *session, every int) {
	if sess.stepping || sess.finished || sess.released {
		return
	}
	sess.stepping = true
	s.steppers.Add(1)
	go s.stepperLoop(sess, every)
}

// stepperLoop drives one session to completion from a dedicated
// goroutine. The loop blocks on the shard queue (internal work yields to
// external requests only through queue order) but aborts promptly when
// the server starts draining — Shutdown finishes the session instead.
func (s *Server) stepperLoop(sess *session, every int) {
	defer s.steppers.Done()
	for {
		select {
		case <-s.drainCh:
			return
		default:
		}
		var done bool
		t := &task{done: make(chan struct{})}
		t.fn = func() {
			if sess.released || sess.finished {
				done = true
				return
			}
			k := every
			if rem := sess.opts.Steps - sess.sim.StepsDone(); k > rem {
				k = rem
			}
			if _, err := s.stepLocked(sess, k, false); err != nil {
				s.logf("session %s: stepper stopped: %v", sess.id, err)
				done = true
				return
			}
			done = sess.finished
		}
		select {
		case sess.shard.tasks <- t:
		case <-s.drainCh:
			s.clearStepping(sess)
			return
		}
		<-t.done
		if done {
			s.clearStepping(sess)
			return
		}
	}
}

// clearStepping marks the session as no longer driven, on its shard loop
// if it is still accepting work (post-drain the flag no longer matters).
func (s *Server) clearStepping(sess *session) {
	t, err := sess.shard.trySubmit(func() { sess.stepping = false })
	if err == nil {
		<-t.done
	}
}

// release tears one session down on its shard loop: Finish (collecting
// whatever steps ran; feeding the cache only on a complete schedule),
// Release, hub close, deregistration. remove is idempotent per session.
func (s *Server) releaseLocked(sess *session) {
	if !sess.released {
		if sess.sim != nil {
			if err := s.finalizeLocked(sess); err != nil {
				s.logf("session %s: finish on release: %v", sess.id, err)
			}
			sess.sim.Release()
		}
		sess.released = true
		sess.hub.close()
	}
	s.mu.Lock()
	s.unplace(sess)
	if _, ok := s.sessions[sess.id]; ok {
		delete(s.sessions, sess.id)
		s.released++
		// The hub is closed above, so its drop count is final: fold it
		// into the service-wide counter so Stats stays monotone after
		// the session leaves the registry.
		s.snapDropped += sess.hub.droppedCount()
	}
	s.mu.Unlock()
}

// Shutdown drains the service: new admissions are rejected (503),
// stream steppers stop, requests already queued on every shard finish,
// and every live session is finished and released. It is safe to call
// once; the HTTP server should be shut down after it so closing hubs
// can end the open stream responses.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	close(s.drainCh)
	s.mu.Unlock()

	// Steppers park at their next drain check; their in-flight shard
	// tasks complete first (the shard loops keep running).
	s.steppers.Wait()

	// Per shard: behind everything already queued, tear down the shard's
	// sessions. Blocking send is safe — admissions are closed, so the
	// queue can only drain.
	for _, sh := range s.shards {
		s.mu.Lock()
		var mine []*session
		for _, sess := range s.sessions {
			if sess.shard == sh {
				mine = append(mine, sess)
			}
		}
		s.mu.Unlock()
		t := &task{done: make(chan struct{})}
		t.fn = func() {
			for _, sess := range mine {
				s.releaseLocked(sess)
			}
		}
		sh.tasks <- t
		<-t.done
	}
	for _, sh := range s.shards {
		close(sh.stop)
	}
	for _, sh := range s.shards {
		<-sh.exited
	}

	// Every shard loop has exited, so no capture can enqueue anymore:
	// close the persistence queue and wait for queued checkpoints to land
	// (bounded: queue depth × retry budget).
	if s.persistCh != nil {
		close(s.persistCh)
		<-s.persistDone
	}
	s.logf("drained: %d sessions released", s.Stats().Sessions.Released)
}

// SessionStats summarizes the session registry.
type SessionStats struct {
	Live      int    `json:"live"`
	Created   uint64 `json:"created"`
	CacheHits uint64 `json:"cache_hits"` // creates served from the Options.Key() cache
	Released  uint64 `json:"released"`
	Rejected  uint64 `json:"rejected"`  // requests shed by backpressure
	Recovered uint64 `json:"recovered"` // sessions re-admitted from the store at boot
}

// ShardStats reports one shard's instantaneous load.
type ShardStats struct {
	ID       int `json:"id"`
	Queue    int `json:"queue"`    // requests waiting
	Capacity int `json:"capacity"` // bounded queue depth
	Sessions int `json:"sessions"` // live sessions placed here
}

// Stats is the service-wide observability snapshot (GET /stats).
type Stats struct {
	Sessions         SessionStats      `json:"sessions"`
	Shards           []ShardStats      `json:"shards"`
	Runner           bench.RunnerStats `json:"runner"`
	SnapshotsDropped uint64            `json:"snapshots_dropped"` // fan-out slow-consumer drops
	Draining         bool              `json:"draining"`
	Store            *store.Stats      `json:"store,omitempty"`       // nil without -store
	Checkpoints      *CkptStats        `json:"checkpoints,omitempty"` // nil without -store
}

// Stats assembles the observability snapshot. It takes no shard tasks —
// it must answer even when every queue is full.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Sessions: SessionStats{
			Live:      len(s.sessions),
			Created:   s.created,
			CacheHits: s.cacheHits,
			Released:  s.released,
			Rejected:  s.rejected,
			Recovered: s.recovered,
		},
		Draining: s.draining,
	}
	if s.cfg.Store != nil {
		ck := s.ckpt
		st.Checkpoints = &ck
	}
	perShard := make(map[*shard]int)
	dropped := s.snapDropped // drops of already-released sessions
	for _, sess := range s.sessions {
		perShard[sess.shard]++
		dropped += sess.hub.droppedCount()
	}
	s.mu.Unlock()
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, ShardStats{
			ID:       sh.id,
			Queue:    len(sh.tasks),
			Capacity: cap(sh.tasks),
			Sessions: perShard[sh],
		})
	}
	st.SnapshotsDropped = dropped
	st.Runner = s.runner.Stats()
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store = &ss
	}
	return st
}

// synthSnapshot fabricates the terminal Snapshot of a completed run from
// its cached Result: cache-hit sessions have no live Sim to ask. Bodies
// are absent — the cache drops them (bench.Runner KeepBodies policy).
func synthSnapshot(opts core.Options, res *core.Result) *core.Snapshot {
	return &core.Snapshot{
		Step:         opts.Steps,
		Steps:        opts.Steps,
		Warmup:       opts.Warmup,
		Level:        res.Level,
		ExecMode:     res.ExecMode,
		Threads:      res.Threads,
		Scenario:     opts.Scenario,
		Time:         float64(opts.Steps) * opts.Dt,
		Clocks:       make([]float64, res.Threads),
		Phases:       res.Phases,
		StepPhases:   res.StepPhases,
		Interactions: res.Interactions,
		Bodies:       res.Bodies,
	}
}

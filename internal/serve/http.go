package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"upcbh/internal/core"
	"upcbh/internal/machine"
)

// createRequest is the POST /sims body. Options (raw core.Options JSON)
// overlays the documented defaults, so a client only names what it
// changes; the machine shorthand fields configure the cluster shape
// without spelling out the full machine model.
type createRequest struct {
	Options  json.RawMessage `json:"options"`
	Threads  int             `json:"threads"`
	PerNode  int             `json:"per_node"`
	Pthreads bool            `json:"pthreads"`
}

// sessionInfo is the JSON shape of a session in responses.
type sessionInfo struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	Shard     int    `json:"shard"`
	Steps     int    `json:"steps"`
	Done      int    `json:"steps_done"`
	Finished  bool   `json:"finished"`
	CacheHit  bool   `json:"cache_hit"`
	Recovered bool   `json:"recovered,omitempty"`  // re-admitted from the store at boot
	FromStore bool   `json:"from_store,omitempty"` // restore answered from the store
}

type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP mux:
//
//	POST   /sims            create a session (cache-aware)
//	POST   /sims/restore    create a session from a checkpoint container
//	GET    /sims            list sessions (recovery discovery)
//	GET    /sims/{id}       session status
//	POST   /sims/{id}/step  advance ?k= steps (default 1), return the snapshot
//	POST   /sims/{id}/checkpoint  serialize the paused state (octet-stream)
//	GET    /sims/{id}/snapshot  current state (?bodies=1 to include bodies)
//	GET    /sims/{id}/stream    NDJSON snapshot stream (?every=, ?bodies=1)
//	GET    /sims/{id}/result    final Result (finishing the session if paused)
//	DELETE /sims/{id}       finish and release
//	GET    /stats           service observability snapshot
//	GET    /healthz         liveness (503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sims", s.handleCreate)
	mux.HandleFunc("POST /sims/restore", s.handleRestore)
	mux.HandleFunc("GET /sims", s.handleList)
	mux.HandleFunc("GET /sims/{id}", s.handleStatus)
	mux.HandleFunc("POST /sims/{id}/step", s.handleStep)
	mux.HandleFunc("POST /sims/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /sims/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /sims/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /sims/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /sims/{id}", s.handleDelete)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// httpStatus maps service and lifecycle errors onto statuses: the
// session state machine's sentinels become conflict codes, the
// backpressure sentinels become retryable server codes, anything else is
// the client's fault at creation time or ours at run time.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests // 429: bounded queue full, retry
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable // 503: shutting down
	case errors.Is(err, core.ErrReleased):
		return http.StatusGone // 410: session torn down
	case errors.Is(err, core.ErrFinished), errors.Is(err, core.ErrSchedule):
		return http.StatusConflict // 409: lifecycle forbids the transition
	default:
		return http.StatusInternalServerError
	}
}

func writeErr(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	if code == http.StatusTooManyRequests {
		// The queue is bounded and the work is short; a prompt retry is
		// the right client behavior.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// info snapshots a session's status on its shard loop.
func (s *Server) info(sess *session) (sessionInfo, error) {
	var si sessionInfo
	t, err := s.submit(sess.shard, func() {
		si = sessionInfo{
			ID:        sess.id,
			Key:       sess.key,
			Shard:     sess.shard.id,
			Steps:     sess.opts.Steps,
			Finished:  sess.finished,
			CacheHit:  sess.cacheHit,
			Recovered: sess.recovered,
			FromStore: sess.fromStore,
		}
		if sess.finished {
			si.Done = sess.opts.Steps
		} else if sess.sim != nil {
			si.Done = sess.sim.StepsDone()
		}
	})
	if err != nil {
		return si, err
	}
	<-t.done
	return si, nil
}

// handleList enumerates the registry: how a client discovers sessions
// it did not create — in particular, sessions re-admitted by startup
// recovery after a crash (flagged recovered). Each status is captured
// on its session's shard loop; a session whose shard rejects the probe
// (backpressure) is skipped rather than failing the listing.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	infos := make([]sessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		si, err := s.info(sess)
		if err != nil {
			continue
		}
		infos = append(infos, si)
	}
	sort.Slice(infos, func(i, j int) bool {
		return sessionOrd(infos[i].ID) < sessionOrd(infos[j].ID)
	})
	writeJSON(w, http.StatusOK, map[string][]sessionInfo{"sessions": infos})
}

// sessionOrd orders "s-<n>" IDs by admission number.
func sessionOrd(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "s-"))
	return n
}

// maxCreateBytes caps a POST /sims body. A create request is a few
// hundred bytes of options JSON; the cap keeps a hostile client from
// streaming an unbounded document into the decoder. Larger bodies
// answer 413.
const maxCreateBytes = 1 << 20

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("create request exceeds the %d-byte body cap", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	opts, err := buildOptions(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// createSession captures the sessionInfo inside its one shard task:
	// no follow-up submission that backpressure could reject after the
	// session is already registered.
	_, si, err := s.createSession(opts)
	if err != nil {
		if errors.Is(err, errBusy) || errors.Is(err, errDraining) {
			writeErr(w, err)
		} else {
			// core.New rejected the configuration.
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusCreated, si)
}

// buildOptions merges a createRequest onto the CLI defaults: the same
// starting point as bhrun (4096 bodies, 4 threads, subspace level),
// overlaid by the raw options JSON, then the machine shorthands.
func buildOptions(req createRequest) (core.Options, error) {
	threads := req.Threads
	if threads <= 0 {
		threads = 4
	}
	opts := core.DefaultOptions(4096, threads, core.LevelSubspace)
	if len(req.Options) > 0 {
		if err := json.Unmarshal(req.Options, &opts); err != nil {
			return opts, fmt.Errorf("bad options: %w", err)
		}
	}
	if req.Threads > 0 || req.PerNode > 0 || req.Pthreads {
		perNode := req.PerNode
		if perNode <= 0 {
			perNode = 1
		}
		m, err := machine.New(opts.Machine.Threads, perNode, req.Pthreads, machine.Power5())
		if err != nil {
			return opts, err
		}
		opts.Machine = m
	}
	return opts, nil
}

// session resolves {id} or writes 404.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	sess, ok := s.lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such session: " + id})
	}
	return sess, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	si, err := s.info(sess)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, si)
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	k := 1
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "k must be a positive integer"})
			return
		}
		k = n
	}
	wantBodies := r.URL.Query().Get("bodies") != ""
	var (
		snap    *core.Snapshot
		stepErr error
	)
	t, err := s.submit(sess.shard, func() {
		snap, stepErr = s.stepLocked(sess, k, wantBodies)
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	<-t.done
	if stepErr != nil {
		writeErr(w, stepErr)
		return
	}
	// snap was published to the session's hub: stream subscribers may be
	// encoding it concurrently, so strip bodies on a copy, never in place.
	// (A subscriber-free step took the bodies-less SnapshotMeta path and
	// has nothing to strip.)
	if !wantBodies && snap.Bodies != nil {
		c := *snap
		c.Bodies = nil
		snap = &c
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleCheckpoint serializes a live session's paused state as one
// checkpoint container (application/octet-stream). The capture runs on
// the session's shard loop — the same serialization domain as stepping,
// so the state is quiescent — into a memory buffer, so a slow client
// never holds the shard. Cache-hit and finished sessions have no live
// paused simulation to capture and answer 409.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var (
		buf     bytes.Buffer
		step    int
		ckptErr error
	)
	t, err := s.submit(sess.shard, func() {
		switch {
		case sess.released:
			ckptErr = core.ErrReleased
		case sess.sim == nil:
			ckptErr = fmt.Errorf("session %s was served from cache and has no live simulation: %w",
				sess.id, core.ErrFinished)
		default:
			step = sess.sim.StepsDone()
			ckptErr = sess.sim.Checkpoint(&buf)
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	<-t.done
	if ckptErr != nil {
		writeErr(w, ckptErr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Checkpoint-Step", strconv.Itoa(step))
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// handleRestore creates a session from a checkpoint container uploaded
// as the request body: the restored simulation resumes at its captured
// step and then behaves like any live session (step, stream, result,
// checkpoint again). A malformed, corrupted, or mismatched container is
// the client's fault — core.Restore marks those core.ErrBadCheckpoint
// and they answer 400 — while a server-side failure constructing the
// restore target stays a 500.
//
// The body is capped at Config.MaxRestoreBytes (-max-restore-bytes;
// default 1 GiB — a checkpoint is dominated by the body heap at ~200 B
// per body, so the default admits far larger simulations than the
// service would ever step while keeping a hostile upload from
// exhausting memory). An oversized upload answers 413.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRestoreBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("checkpoint exceeds the %d-byte upload cap", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad checkpoint body: " + err.Error()})
		return
	}
	_, si, err := s.restoreSession(data)
	if err != nil {
		if errors.Is(err, core.ErrBadCheckpoint) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		} else {
			writeErr(w, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, si)
}

// snapshotOf captures a session's current state on its shard loop,
// synthesizing the terminal snapshot for completed sessions (which may
// have no live simulation to ask).
func (s *Server) snapshotOf(sess *session) (*core.Snapshot, error) {
	var (
		snap    *core.Snapshot
		snapErr error
	)
	t, err := s.submit(sess.shard, func() {
		switch {
		case sess.released:
			snapErr = core.ErrReleased
		case sess.sim != nil:
			snap, snapErr = sess.sim.Snapshot()
		case sess.result != nil:
			snap = synthSnapshot(sess.opts, sess.result)
		default:
			snapErr = core.ErrReleased
		}
	})
	if err != nil {
		return nil, err
	}
	<-t.done
	return snap, snapErr
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	snap, err := s.snapshotOf(sess)
	if err != nil {
		writeErr(w, err)
		return
	}
	if r.URL.Query().Get("bodies") == "" {
		snap.Bodies = nil
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var (
		res    *core.Result
		runErr error
	)
	t, err := s.submit(sess.shard, func() {
		if sess.released {
			runErr = core.ErrReleased
			return
		}
		if !sess.finished {
			// Finish collects the result of whatever has run so far; a
			// partial schedule is a legitimate result but is not memoized.
			if runErr = s.finalizeLocked(sess); runErr != nil {
				return
			}
		}
		res = sess.result
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	<-t.done
	if runErr != nil {
		writeErr(w, runErr)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	t, err := s.submit(sess.shard, func() {
		s.releaseLocked(sess)
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	<-t.done
	w.WriteHeader(http.StatusNoContent)
}

// handleStream serves the NDJSON snapshot stream: subscribe to the
// session's hub, start the (single) stepper if nobody is driving the
// session yet, then relay snapshots until the hub closes (session
// finished or released) or the client goes away. The first frame is the
// session's current state, so a subscriber always sees where it joined —
// a fresh session streams from step 0, matching bhrun -stream.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	every := s.cfg.StreamEvery
	if v := r.URL.Query().Get("every"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "every must be a positive integer"})
			return
		}
		every = n
	}
	withBodies := r.URL.Query().Get("bodies") != ""

	// First frame + subscription + stepper start execute as one shard
	// task, so no published snapshot can fall between the current state
	// and the subscription.
	var (
		first   *core.Snapshot
		sub     *subscriber
		snapErr error
	)
	t, err := s.submit(sess.shard, func() {
		switch {
		case sess.released:
			snapErr = core.ErrReleased
			return
		case sess.sim != nil:
			first, snapErr = sess.sim.Snapshot()
		case sess.result != nil:
			first = synthSnapshot(sess.opts, sess.result)
		default:
			snapErr = core.ErrReleased
			return
		}
		if snapErr != nil {
			return
		}
		sub = sess.hub.subscribe(s.cfg.SubBuffer) // nil if already finished: stream is just the terminal frame
		s.ensureStepperLocked(sess, every)
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	<-t.done
	if snapErr != nil {
		writeErr(w, snapErr)
		return
	}
	if sub != nil {
		defer sess.hub.unsubscribe(sub)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(snap *core.Snapshot) bool {
		if !withBodies {
			c := *snap
			c.Bodies = nil
			snap = &c
		}
		if err := enc.Encode(snap); err != nil {
			return false // client went away; unsubscribe via defer
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit(first) {
		return
	}
	if sub == nil {
		return
	}
	last := first.Step
	for {
		select {
		case snap, ok := <-sub.ch:
			if !ok {
				return // hub closed: session finished or released
			}
			if snap.Step <= last {
				continue // stale relative to the first frame we chose
			}
			last = snap.Step
			if !emit(snap) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz is liveness plus the store's durability state: 503 only
// while draining. A degraded store (persistent checkpoint-write
// failures, e.g. a full disk) stays 200 — sessions keep running
// in-memory and the service is still doing useful work — but the body
// flips to "degraded" so operators can alert on lost durability.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	body := map[string]string{"status": "ok"}
	if st := s.cfg.Store; st != nil {
		if st.Degraded() {
			body["status"] = "degraded"
			body["store"] = "degraded"
		} else {
			body["store"] = "ok"
		}
	}
	writeJSON(w, http.StatusOK, body)
}

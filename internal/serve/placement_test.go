package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"upcbh/internal/core"
)

// seededOpts is testOpts with a distinct seed: a distinct cache key, so
// the session is built rather than served from cache.
func seededOpts(steps int, seed uint64) core.Options {
	opts := testOpts(steps)
	opts.Seed = seed
	return opts
}

// shardLoads reads every shard's placement load.
func shardLoads(s *Server) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var loads []int
	for _, sh := range s.shards {
		loads = append(loads, sh.load)
	}
	return loads
}

func wantLoads(t *testing.T, s *Server, want ...int) {
	t.Helper()
	if got := shardLoads(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shard loads %v, want %v", got, want)
	}
}

func releaseOne(t *testing.T, s *Server, sess *session) {
	t.Helper()
	tk, err := s.submit(sess.shard, func() { s.releaseLocked(sess) })
	if err != nil {
		t.Fatal(err)
	}
	<-tk.done
}

// TestPlacementLeastLoaded: each create lands on the shard with the
// fewest sessions that can still step, ties to the lowest id; released
// and finished sessions free their slot, and a cache hit never holds one.
func TestPlacementLeastLoaded(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})

	a, siA, err := s.createSession(seededOpts(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, siB, err := s.createSession(seededOpts(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if siA.Shard != 0 || siB.Shard != 1 {
		t.Fatalf("two unfinished sessions on shards %d and %d, want 0 and 1", siA.Shard, siB.Shard)
	}
	wantLoads(t, s, 1, 1)

	// Releasing a frees its shard: the next create lands there.
	releaseOne(t, s, a)
	wantLoads(t, s, 0, 1)
	_, siC, err := s.createSession(seededOpts(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if siC.Shard != siA.Shard {
		t.Fatalf("create after release landed on shard %d, want the freed shard %d", siC.Shard, siA.Shard)
	}

	// b runs to completion: a finished session no longer counts.
	for i := 0; i < 3; i++ {
		stepOne(t, s, b)
	}
	wantLoads(t, s, 1, 0)

	// A cache hit is born finished: placed, but it gives its load back,
	// so the next create still finds b's shard idle.
	_, siHit, err := s.createSession(seededOpts(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !siHit.CacheHit || siHit.Shard != siB.Shard {
		t.Fatalf("repeat of b: %+v, want a cache hit on shard %d", siHit, siB.Shard)
	}
	wantLoads(t, s, 1, 0)
	_, siD, err := s.createSession(seededOpts(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if siD.Shard != siB.Shard {
		t.Fatalf("create after a cache hit landed on shard %d, want %d", siD.Shard, siB.Shard)
	}
	wantLoads(t, s, 1, 1)
}

// TestPlacementRecoveredSplit: sessions re-admitted from the store at
// boot are placed like any other — four recovered sessions on two
// shards split 2/2.
func TestPlacementRecoveredSplit(t *testing.T) {
	dir := t.TempDir()
	st1 := openTestStore(t, dir, nil)
	s1 := New(Config{Shards: 1, Store: st1, CkptEvery: 2, Logf: t.Logf})
	for i := 0; i < 4; i++ {
		opts := seededOpts(6, uint64(10+i))
		sess, _, err := s1.createSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		stepOne(t, s1, sess)
		stepOne(t, s1, sess)
		waitFor(t, "step-2 checkpoint", func() bool { return st1.Has(opts.Key(), 2) })
	}
	s1.Shutdown()

	s2 := newTestServer(t, Config{Shards: 2, Store: openTestStore(t, dir, nil)})
	st := s2.Stats()
	if st.Sessions.Recovered != 4 {
		t.Fatalf("recovered %d sessions, want 4", st.Sessions.Recovered)
	}
	for _, sh := range st.Shards {
		if sh.Sessions != 2 {
			t.Fatalf("recovered sessions split %+v, want 2/2", st.Shards)
		}
	}
	wantLoads(t, s2, 2, 2)
}

// TestLoadAccountingExactlyOnce: every admission charges its shard one
// unit of load and every session gives it back exactly once — on
// finishing, on release, or on failed admission (invalid options, a
// corrupt restore, a full queue, a create racing Shutdown). Loads never
// go negative and end at zero. The CI serve lane runs it under
// -race -cpu 2,4.
func TestLoadAccountingExactlyOnce(t *testing.T) {
	s := newTestServer(t, Config{Shards: 3})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			for _, l := range shardLoads(s) {
				if l < 0 {
					t.Errorf("shard load went negative: %v", l)
					return
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	post := func(path, ctype string, body io.Reader) (int, []byte) {
		resp, err := http.Post(ts.URL+path, ctype, body)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	// Concurrent lifecycles: half run to completion, half are deleted
	// mid-run; every third repeats an earlier key and may hit the cache.
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, _, err := s.createSession(seededOpts(4, uint64(100+i-i%3)))
			if err != nil {
				t.Error(err)
				return
			}
			steps := 4
			if i%2 == 1 {
				steps = 1
			}
			for k := 0; k < steps; k++ {
				tk, err := s.submit(sess.shard, func() { _, _ = s.stepLocked(sess, 1, false) })
				if err != nil {
					t.Error(err)
					return
				}
				<-tk.done
			}
			if i%2 == 1 {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sims/"+sess.id, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		if code, body := post("/sims", "application/json", strings.NewReader(`{"options":{"bodies":1}}`)); code != http.StatusBadRequest {
			t.Errorf("invalid options: %d %s, want 400", code, body)
		}
	}()
	go func() {
		defer wg.Done()
		sess, _, err := s.createSession(seededOpts(4, 200))
		if err != nil {
			t.Error(err)
			return
		}
		code, ckpt := post("/sims/"+sess.id+"/checkpoint", "application/octet-stream", nil)
		if code != http.StatusOK {
			t.Errorf("checkpoint: %d", code)
			return
		}
		tk, err := s.submit(sess.shard, func() { s.releaseLocked(sess) })
		if err != nil {
			t.Error(err)
			return
		}
		<-tk.done
		ckpt[len(ckpt)-1] ^= 0x40 // payload corruption: CRC mismatch
		if code, body := post("/sims/restore", "application/octet-stream", bytes.NewReader(ckpt)); code != http.StatusBadRequest {
			t.Errorf("corrupt restore: %d %s, want 400", code, body)
		}
	}()
	wg.Wait()
	wantLoads(t, s, 0, 0, 0)

	// A full queue rejects the admission (errBusy) and returns its load.
	sh := s.shards[0]
	block, running := make(chan struct{}), make(chan struct{})
	if _, err := sh.trySubmit(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running
	var filled []*task
	for {
		tk, err := sh.trySubmit(func() {})
		if err != nil {
			break
		}
		filled = append(filled, tk)
	}
	if _, _, err := s.createSession(seededOpts(4, 300)); !errors.Is(err, errBusy) {
		t.Fatalf("create against a full queue: err=%v, want errBusy", err)
	}
	wantLoads(t, s, 0, 0, 0)
	close(block)
	for _, tk := range filled {
		<-tk.done
	}

	// Creates racing Shutdown: each is swept, torn down by the drain
	// race, or refused — and every path gives its load back.
	for i := 0; i < 3; i++ {
		if _, _, err := s.createSession(seededOpts(4, uint64(400+i))); err != nil {
			t.Fatal(err)
		}
	}
	wantLoads(t, s, 1, 1, 1)
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, _, err := s.createSession(seededOpts(4, uint64(500+i))); err != nil && !errors.Is(err, errDraining) {
				t.Errorf("create racing Shutdown: %v", err)
			}
		}(i)
	}
	close(start)
	s.Shutdown()
	wg.Wait()
	close(stop)
	watch.Wait()
	wantLoads(t, s, 0, 0, 0)
}

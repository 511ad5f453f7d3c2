package upc

import (
	"fmt"
	"reflect"
	"unsafe"
)

// This file is the checkpoint/restore surface of the runtime: the
// portion of a Runtime's virtual-time state that persists across
// session step boundaries and therefore must survive a checkpoint.
// Everything else the scheduler owns — barrier/collective epochs, lock
// hold state, run queues — is provably quiescent at a completed pause
// (all live threads parked in sStep, no arrivals counted, no locks
// held), so a restored runtime reproduces it by construction and only
// the state below needs to travel (DESIGN.md §13).

// ThreadState is one thread's persistent clock and operation counters.
type ThreadState struct {
	Clock float64 `json:"clock"`
	Stats Stats   `json:"stats"`
}

// RuntimeState is the runtime's checkpointable state at a paused step
// gate.
type RuntimeState struct {
	Threads []ThreadState `json:"threads"`
	// NICAvail is the per-thread NIC availability time (simulate mode):
	// it carries serialization pressure across step boundaries.
	NICAvail []float64 `json:"nic_avail,omitempty"`
	// Sched is the cooperative-scheduler counter state; byte-exact
	// stepped equivalence includes SchedStats.
	Sched SchedStats `json:"sched"`
	// StepFirst is the thread that held the baton when the pause began:
	// Resume hands it the baton back, so the restored continuation is
	// scheduled exactly as the uninterrupted run's.
	StepFirst int32 `json:"step_first"`
}

// CaptureState snapshots the persistent runtime state. Only valid
// while a session is paused (every live thread parked at the step
// gate) — the moment no thread is running and every clock is final.
func (rt *Runtime) CaptureState() RuntimeState {
	st := RuntimeState{
		Threads:   make([]ThreadState, rt.n),
		StepFirst: -1,
	}
	for i, t := range rt.threads {
		st.Threads[i] = ThreadState{Clock: t.clock, Stats: t.stats}
	}
	if rt.coop != nil {
		st.NICAvail = make([]float64, rt.n)
		for i := range rt.nic {
			st.NICAvail[i] = rt.nic[i].availAt
		}
		st.Sched = rt.coop.stats
		st.StepFirst = rt.coop.stepFirst
	}
	return st
}

// RestoreState overwrites the persistent runtime state with a captured
// snapshot. Only valid while a session is paused; the snapshot must
// come from a runtime of the same thread count and mode.
func (rt *Runtime) RestoreState(st RuntimeState) error {
	if len(st.Threads) != rt.n {
		return fmt.Errorf("upc: restore of %d-thread state into %d-thread runtime", len(st.Threads), rt.n)
	}
	for i, t := range rt.threads {
		t.clock = st.Threads[i].Clock
		t.stats = st.Threads[i].Stats
	}
	if rt.coop != nil {
		if len(st.NICAvail) != rt.n {
			return fmt.Errorf("upc: restore with %d NIC states, want %d", len(st.NICAvail), rt.n)
		}
		for i := range rt.nic {
			rt.nic[i].availAt = st.NICAvail[i]
		}
		rt.coop.stats = st.Sched
		if st.StepFirst >= 0 {
			if int(st.StepFirst) >= rt.n {
				return fmt.Errorf("upc: restore step-first thread %d out of range", st.StepFirst)
			}
			// The restored pause must resume through the same thread the
			// original pause parked first, not whichever thread parked
			// first during the fresh runtime's setup.
			rt.coop.stepFirst = st.StepFirst
		}
	}
	return nil
}

// Run is a half-open range [Lo, Hi) of element indices within one
// shard.
type Run struct{ Lo, Hi int32 }

// CaptureRuns appends the raw bytes of the elements in runs of thread
// thr's shard to buf, in run order, and returns the extended buffer.
// Every run must lie within the allocated [0, Len(thr)); a run may span
// chunk boundaries.
func (h *Heap[T]) CaptureRuns(thr int, runs []Run, buf []byte) []byte {
	h.eachSpan(thr, runs, func(b []byte) { buf = append(buf, b...) })
	return buf
}

// RestoreRuns overwrites the elements in runs of thread thr's shard
// with the leading bytes of data, in run order — the inverse of
// CaptureRuns — and returns the unconsumed rest of data. The restore
// protocol reconstructs the allocation layout first (deterministic
// setup, then GrowShard); runs outside it, or more bytes than data
// holds, are an error and leave the shard untouched.
func (h *Heap[T]) RestoreRuns(thr int, runs []Run, data []byte) ([]byte, error) {
	n := h.shards[thr].n
	need := 0
	for _, r := range runs {
		if r.Lo < 0 || r.Lo > r.Hi || r.Hi > n {
			return nil, fmt.Errorf("upc: restore shard %d: run [%d, %d) outside the %d allocated elements", thr, r.Lo, r.Hi, n)
		}
		need += int(r.Hi-r.Lo) * h.elemSize
	}
	if need > len(data) {
		return nil, fmt.Errorf("upc: restore shard %d: runs need %d bytes, %d captured", thr, need, len(data))
	}
	h.eachSpan(thr, runs, func(b []byte) { data = data[copy(b, data):] })
	return data, nil
}

// eachSpan calls f with the element storage of runs in thread thr's
// shard as raw bytes, one call per chunk-contained span, in run order.
func (h *Heap[T]) eachSpan(thr int, runs []Run, f func(b []byte)) {
	sh := &h.shards[thr]
	mask := h.chunkSize - 1
	for _, r := range runs {
		for lo := r.Lo; lo < r.Hi; {
			hi := min(r.Hi, (lo|mask)+1)
			c := sh.table[lo>>h.shift].Load()
			f(unsafe.Slice((*byte)(unsafe.Pointer(&(*c)[lo&mask])), int(hi-lo)*h.elemSize))
			lo = hi
		}
	}
}

// GrowShard extends thread thr's shard to exactly n allocated elements,
// materializing any missing chunks, without a Thread and without
// charging simulated cost. It exists for the restore path: a
// checkpointed run may have allocated buffers mid-flight (subspace
// buffer growth) that the fresh setup does not reproduce, so restore
// first grows the shard to the captured layout and then overwrites the
// captured contents with RestoreRuns. Chunk contents are unspecified
// until overwritten.
func (h *Heap[T]) GrowShard(thr int, n int32) error {
	sh := &h.shards[thr]
	if n < sh.n {
		return fmt.Errorf("upc: GrowShard to %d elements, shard already holds %d", n, sh.n)
	}
	if n == sh.n {
		return nil
	}
	last := int((n - 1) >> h.shift)
	if last >= maxChunks {
		return fmt.Errorf("upc: GrowShard to %d elements exceeds shard capacity", n)
	}
	cs := int(h.chunkSize)
	p := heapPool(heapPoolKey{typ: reflect.TypeFor[T](), els: cs})
	for j := 0; j <= last; j++ {
		if sh.table[j].Load() != nil {
			continue
		}
		if h.recycle {
			if v := p.Get(); v != nil {
				sh.table[j].Store(v.(*[]T))
				continue
			}
		}
		c := make([]T, cs)
		sh.table[j].Store(&c)
	}
	sh.n = n
	return nil
}

// CaptureAvail returns each lock's simulated availability time — the
// only lock state that persists across a completed pause (no lock is
// held at a step boundary, but a contended lock's serialization
// horizon feeds the next acquisition's clock).
func (la *LockArray) CaptureAvail() []float64 {
	out := make([]float64, len(la.locks))
	for i, l := range la.locks {
		out[i] = l.availAt
	}
	return out
}

// RestoreAvail overwrites each lock's availability time.
func (la *LockArray) RestoreAvail(avail []float64) error {
	if len(avail) != len(la.locks) {
		return fmt.Errorf("upc: restore of %d lock states into %d locks", len(avail), len(la.locks))
	}
	for i, l := range la.locks {
		l.availAt = avail[i]
	}
	return nil
}

// Len returns the number of locks in the array.
func (la *LockArray) Len() int { return len(la.locks) }

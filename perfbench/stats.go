package main

import (
	"bufio"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"upcbh/internal/nbody"
	"upcbh/internal/vec"
)

// scale sizes every workload; fullScale is what the benchmark measures,
// smallScale what the self-test runs.
type scale struct {
	nativeBodies, nativeThreads, nativeSteps, nativeWarmup int
	ladderBodies, ladderThreads                            int
	serveBodies, serveSteps, serveCkptEvery, recoverSess   int
	forceSample                                            int // bodies checked against direct summation
	minSteps                                               int // serve-mixed: step requests before the loop may stop
}

var fullScale = scale{
	nativeBodies: 65536, nativeThreads: 2, nativeSteps: 12, nativeWarmup: 2,
	ladderBodies: 16384, ladderThreads: 16,
	serveBodies: 1024, serveSteps: 8, serveCkptEvery: 4, recoverSess: 16,
	forceSample: 1024,
	minSteps:    1000,
}

var smallScale = scale{
	nativeBodies: 2048, nativeThreads: 2, nativeSteps: 5, nativeWarmup: 1,
	ladderBodies: 512, ladderThreads: 4,
	serveBodies: 256, serveSteps: 6, serveCkptEvery: 2, recoverSess: 4,
	forceSample: 64,
	minSteps:    20,
}

// settle collects the heap twice, which also empties the sync.Pools the
// upc heaps recycle storage through, and returns free memory to the OS,
// so every native-plummer run starts from the same state rather than
// from whatever the collector and the scavenger happened to leave; the
// run's untimed warm-up steps absorb the page faults.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// ms and sec convert a duration to the metric units.
func ms(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func sec(d time.Duration) float64 { return d.Seconds() }

// quantile is the linear-interpolation quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// memWindow measures Go heap allocation and GC pause over a window.
type memWindow struct{ start runtime.MemStats }

func openMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// close returns bytes allocated and GC pause time since the window opened.
func (w *memWindow) close() (allocBytes uint64, gcPause time.Duration) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return end.TotalAlloc - w.start.TotalAlloc, time.Duration(end.PauseTotalNs - w.start.PauseTotalNs)
}

// forceErrRMS compares the accelerations of a seeded sample of a run's
// final bodies against direct summation over all bodies, at the
// positions the accelerations were computed at (the final leapfrog drift
// undone): sqrt(sum |a - a_direct|^2 / sum |a_direct|^2) over the sample.
func forceErrRMS(final []nbody.Body, eps, dt float64, sample int, seed uint64) float64 {
	at := make([]vec.V3, len(final))
	for i := range final {
		at[i] = final[i].Pos.AddScaled(final[i].Vel, -dt)
	}
	epsSq := eps * eps
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	var num, den float64
	for k := 0; k < sample && k < len(final); k++ {
		i := r.IntN(len(final))
		var ref vec.V3
		for j := range final {
			if j != i {
				d, _ := nbody.Interact(at[i], at[j], final[j].Mass, epsSq)
				ref = ref.Add(d)
			}
		}
		num += final[i].Acc.Sub(ref).Len2()
		den += ref.Len2()
	}
	if den == 0 {
		return math.NaN()
	}
	return math.Sqrt(num / den)
}

// forceTolRMS is the RMS force-error tolerance at opening angle theta:
// the multipole error of a correct tree code grows roughly as theta^2
// and stays at a few percent at theta = 1; a missed subtree or a
// double-counted body moves it by orders of magnitude.
func forceTolRMS(theta float64) float64 { return 0.05 * theta * theta }

// momentumDrift is |P_final - P_initial| over the momentum scale
// sum m|v| of the initial state (the total starts at ~0 in the
// centre-of-mass frame, so a relative measure needs the scale).
func momentumDrift(initial, final []nbody.Body) float64 {
	var p0, p1 vec.V3
	var scale float64
	for i := range initial {
		p0 = p0.AddScaled(initial[i].Vel, initial[i].Mass)
		scale += initial[i].Mass * initial[i].Vel.Len()
	}
	for i := range final {
		p1 = p1.AddScaled(final[i].Vel, final[i].Mass)
	}
	if scale == 0 {
		return math.NaN()
	}
	return p1.Sub(p0).Len() / scale
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"time"
	"unsafe"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
	"upcbh/internal/octree"
)

// nativeOptions is the native-plummer problem: the paper's Plummer
// model on the multi-core backend at the merged-build level.
func nativeOptions(sc scale, threads int, seed uint64) core.Options {
	o := core.DefaultOptions(sc.nativeBodies, threads, core.LevelMergedBuild)
	o.ExecMode = core.ModeNative
	o.Steps, o.Warmup = sc.nativeSteps, sc.nativeWarmup
	o.Seed = seed
	return o
}

// setupSim is the measured set-up: core.New until every thread is parked
// before step 0. It returns the Sim, the core.New time and the whole
// set-up time.
func setupSim(tr *tracer, parent int64, sess string, opts core.Options) (*core.Sim, time.Duration, time.Duration, error) {
	t0 := time.Now()
	sp := tr.begin(parent, "core", "New", sess)
	sim, err := core.New(opts)
	tr.end(sp)
	create := time.Since(t0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core.New: %w", err)
	}
	sp = tr.begin(parent, "core", "SnapshotMeta", sess)
	_, err = sim.SnapshotMeta()
	tr.end(sp)
	if err != nil {
		sim.Release()
		return nil, 0, 0, fmt.Errorf("start session: %w", err)
	}
	return sim, create, time.Since(t0), nil
}

// stepTimed runs one Step(1) and returns its wall time.
func stepTimed(tr *tracer, parent int64, sess string, sim *core.Sim) (time.Duration, error) {
	t0 := time.Now()
	sp := tr.begin(parent, "core", "Step", sess)
	err := sim.Step(1)
	tr.end(sp)
	return time.Since(t0), err
}

// nativeRun is what one native-plummer run measured.
type nativeRun struct {
	res      *core.Result
	runWall  time.Duration
	stepWall []time.Duration // timed steps, in order
	alloc    uint64
	gcPause  time.Duration
	ckpt     []byte // checkpoint taken after warm-up, when asked for
}

// nativeOnce runs the whole schedule of opts once: set-up, untimed
// warm-up, timed steps, Finish.
func nativeOnce(tr *tracer, parent int64, opts core.Options, withCkpt bool) (*nativeRun, error) {
	sess := fmt.Sprintf("p%d", opts.Machine.Threads)
	settle()
	sim, _, _, err := setupSim(tr, parent, sess, opts)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	for k := 0; k < opts.Warmup; k++ {
		if _, err := stepTimed(tr, parent, sess, sim); err != nil {
			return nil, err
		}
	}
	run := &nativeRun{}
	if withCkpt {
		var buf bytes.Buffer
		sp := tr.begin(parent, "core", "Checkpoint", sess)
		err := sim.Checkpoint(&buf)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		run.ckpt = buf.Bytes()
	}
	mw := openMemWindow()
	t0 := time.Now()
	for k := opts.Warmup; k < opts.Steps; k++ {
		d, err := stepTimed(tr, parent, sess, sim)
		if err != nil {
			return nil, err
		}
		run.stepWall = append(run.stepWall, d)
	}
	run.runWall = time.Since(t0)
	run.alloc, run.gcPause = mw.close()
	sp := tr.begin(parent, "core", "Finish", sess)
	run.res, err = sim.Finish()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	return run, nil
}

// runNative is the native-plummer workload: the solver's time to
// solution on 2 cores, where the kernels and phases do the work.
func runNative(cfg config, out *outcome) error {
	sc, tr := cfg.scale, cfg.tr
	opts := nativeOptions(sc, sc.nativeThreads, cfg.seed)
	out.headline = "run_s"
	root := tr.begin(0, "bench", "native-plummer", "")
	defer tr.end(root)

	cs := &cold{cfg: cfg, name: "native-plummer", recoverTask: "restore"}
	defer func() {
		if cs.recoverPath != "" {
			os.Remove(cs.recoverPath)
		}
	}()
	initial, err := nbody.GenerateScenario(opts.Scenario, opts.Bodies, opts.Seed)
	if err != nil {
		return err
	}

	var (
		runs, stepsMS, overheadMS []float64
		runP99                    []float64 // each run's p99 step
		phaseMS                   [core.NumPhases][]float64
		alloc                     uint64
		gcPause                   time.Duration
		ckptBytes                 int
		interactions              uint64
		timedSteps                int
		repeatErr                 error
		final                     []nbody.Body
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// A round is one run between a fresh-process set-up and a
	// fresh-process restore of the run's post-warm-up checkpoint.
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		run, err := nativeOnce(tr, root, opts, r == 0)
		out.attempted += int64(opts.Steps)
		if err != nil {
			return err
		}
		if r == 0 {
			if cs.recoverPath, err = writeTemp(cfg.work, run.ckpt); err != nil {
				return err
			}
		}
		if err := cs.round(1); err != nil {
			return err
		}
		runs = append(runs, sec(run.runWall))
		alloc += run.alloc
		gcPause += run.gcPause
		timedSteps += len(run.stepWall)
		var runSteps []float64
		for k, d := range run.stepWall {
			runSteps = append(runSteps, ms(d))
			stepsMS = append(stepsMS, ms(d))
			ph := run.res.StepPhases[k]
			overheadMS = append(overheadMS, ms(d)-1e3*ph.Total())
			for p := range ph {
				phaseMS[p] = append(phaseMS[p], 1e3*ph[p])
			}
		}
		runP99 = append(runP99, quantile(runSteps, 0.99))
		if r == 0 {
			ckptBytes = len(run.ckpt)
			interactions = run.res.Interactions
			final = run.res.Bodies
		} else if run.res.Interactions != interactions && repeatErr == nil {
			repeatErr = errCheck("run %d computed %d interactions, run 0 computed %d", r, run.res.Interactions, interactions)
		}
	}
	out.check("interactions repeat at a fixed seed and thread count", repeatErr)
	sp := tr.begin(root, "bench", "check-physics", "")
	checkPhysics(out, opts, initial, final, sc.forceSample, cfg.seed)
	tr.end(sp)

	setups, creates, restores := cs.setups, cs.creates, cs.recovers
	out.set("setup_s", "s", median(setups))
	out.set("run_s", "s", median(runs))
	out.set("step_ms_p50", "ms", median(stepsMS))
	// A run has too few steps for a pooled p99 to mean anything but the
	// worst step of the process; the median over runs of each run's p99
	// is the typical slowest step.
	out.set("step_ms_p99", "ms", median(runP99))
	out.set("create_ms_p50", "ms", median(creates))
	out.set("requests_per_s", "1/s", float64(len(stepsMS))/sum(runs))
	out.set("recover_s", "s", median(restores))
	out.set("peak_rss_mb", "MB", peakRSSMB())
	out.notef("native-plummer: %d bodies, %d threads, walls of %d timed steps %.3f s, set-ups %.3f s, restores %.3f s",
		opts.Bodies, sc.nativeThreads, opts.Steps-opts.Warmup, runs, setups, restores)

	if tr == nil {
		return nil
	}
	// Per-layer: the phase table, the step's own overhead, the session
	// layer, the Go runtime, and the kernels called directly on the same
	// bodies.
	out.set("core.restore_ms", "ms", 1e3*median(restores))
	out.set("core.tree_ms", "ms", median(addSlices(phaseMS[core.PhaseTree], phaseMS[core.PhaseCofM])))
	out.set("core.partition_ms", "ms", median(phaseMS[core.PhasePartition]))
	out.set("core.redist_ms", "ms", median(phaseMS[core.PhaseRedist]))
	out.set("core.force_ms", "ms", median(phaseMS[core.PhaseForce]))
	out.set("core.advance_ms", "ms", median(phaseMS[core.PhaseAdvance]))
	out.set("core.step_overhead_ms", "ms", median(overheadMS))
	out.set("core.checkpoint_bytes", "B", float64(ckptBytes))
	out.set("go.alloc_bytes_per_step", "B", float64(alloc)/float64(timedSteps))
	out.set("go.gc_pause_ms", "ms", ms(gcPause))

	// Parallel efficiency: the same problem on one thread.
	one := nativeOptions(sc, 1, cfg.seed)
	run1, err := nativeOnce(tr, root, one, false)
	if err != nil {
		return err
	}
	out.set("core.parallel_eff", "ratio", sec(run1.runWall)/(float64(sc.nativeThreads)*median(runs)))
	octreeProbe(tr, root, out, initial, opts.Theta, opts.Eps)
	return nil
}

// octreeProbe times the flat kernels directly on the workload's bodies:
// one build and one single-threaded force pass, three times.
func octreeProbe(tr *tracer, parent int64, out *outcome, initial []nbody.Body, theta, eps float64) {
	var builds, forces []float64
	var inter uint64
	var ft *octree.FlatTree
	for i := 0; i < 3; i++ {
		bodies := append([]nbody.Body(nil), initial...)
		t0 := time.Now()
		sp := tr.begin(parent, "octree", "BuildFlat", "")
		ft = octree.BuildFlat(bodies)
		tr.end(sp)
		builds = append(builds, ms(time.Since(t0)))
		t0 = time.Now()
		sp = tr.begin(parent, "octree", "SolveInto", "")
		ft.SolveInto(bodies, theta, eps)
		tr.end(sp)
		forces = append(forces, ms(time.Since(t0)))
		var n uint64
		for j := range bodies {
			n += uint64(bodies[j].Cost)
		}
		if i > 0 && n != inter {
			out.check("octree interactions repeat", errCheck("pass %d: %d interactions, pass 0: %d", i, n, inter))
		}
		inter = n
	}
	out.set("octree.build_ms", "ms", median(builds))
	out.set("octree.force_ms", "ms", median(forces))
	out.set("octree.interactions", "count", float64(inter))
	out.set("octree.force_ns_per_interaction", "ns", 1e6*median(forces)/float64(inter))
	out.set("octree.bytes_per_interaction", "B", float64(forcePassBytes(ft))/float64(inter))
}

// forcePassBytes is the computed traffic of one force pass: every array
// the pass reads once (tree nodes, kid lists, packed leaf records, body
// positions and slot ids) plus the per-body results it writes
// (acceleration, potential, cost). It ignores cache misses and reuse.
func forcePassBytes(ft *octree.FlatTree) int {
	var b nbody.Body
	n := ft.Bodies.Len()
	read := len(ft.Nodes)*int(unsafe.Sizeof(octree.FlatNode{})) +
		len(ft.Kids)*int(unsafe.Sizeof(int32(0))) +
		len(ft.PM)*int(unsafe.Sizeof(octree.PosMass{})) +
		n*int(unsafe.Sizeof(b.Pos)+unsafe.Sizeof(int32(0)))
	written := n * int(unsafe.Sizeof(b.Acc)+unsafe.Sizeof(b.Phi)+unsafe.Sizeof(b.Cost))
	return read + written
}

// checkPhysics holds a run's final state to the physics oracle:
// RMS force error within the theta-keyed tolerance, momentum drift ~0.
func checkPhysics(out *outcome, opts core.Options, initial, final []nbody.Body, sample int, seed uint64) {
	rms := forceErrRMS(final, opts.Eps, opts.Dt, sample, seed)
	out.set("force_err_rms", "ratio", rms)
	out.check("force error within theta tolerance", checkForceErr(rms, opts.Theta))
	out.check("momentum drift ~0", checkMomentum(momentumDrift(initial, final), opts.Theta))
}

func checkForceErr(rms, theta float64) error {
	if !(rms <= forceTolRMS(theta)) {
		return errCheck("RMS force error %.3g exceeds %.3g at theta %g", rms, forceTolRMS(theta), theta)
	}
	return nil
}

// momentumTol is the momentum-drift tolerance at opening angle theta:
// the tree approximation breaks Newton's third law only by its
// theta-bounded asymmetry.
func momentumTol(theta float64) float64 { return 1e-2 * theta }

func checkMomentum(drift, theta float64) error {
	if !(drift <= momentumTol(theta)) {
		return errCheck("momentum drift %.3g exceeds %.3g at theta %g", drift, momentumTol(theta), theta)
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func addSlices(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

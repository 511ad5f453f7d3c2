package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
)

// ladderRefSeeds is how many Plummer seeds the recorded reference
// covers; --seed n runs seed 1 + n mod ladderRefSeeds, so every seed
// has a reference and the same seed gives the same inputs.
const ladderRefSeeds = 8

func ladderSeed(seed uint64) uint64 { return 1 + seed%ladderRefSeeds }

// ladderOptions is one rung of the simulate ladder: the paper's Plummer
// problem on the deterministic LogGP-charged backend, at one level.
func ladderOptions(sc scale, level core.Level, seed uint64) core.Options {
	o := core.DefaultOptions(sc.ladderBodies, sc.ladderThreads, level)
	o.Seed = ladderSeed(seed)
	return o
}

// levelRef is the modelled behaviour of one level: phase totals in
// simulated seconds and the counts. The simulate backend is
// deterministic, so a correct run reproduces every field exactly.
type levelRef struct {
	Level        string                  `json:"level"`
	Phases       [core.NumPhases]float64 `json:"phases"`
	Interactions uint64                  `json:"interactions"`
	Handoffs     uint64                  `json:"handoffs"`
	SpinYields   uint64                  `json:"spin_yields"`
	Messages     uint64                  `json:"messages"`
	MessageBytes uint64                  `json:"message_bytes"`
}

func refOf(res *core.Result) levelRef {
	return levelRef{
		Level:        res.Level.String(),
		Phases:       res.Phases,
		Interactions: res.Interactions,
		Handoffs:     res.Sched.Handoffs,
		SpinYields:   res.Sched.SpinYields,
		Messages:     res.Stats.Msgs,
		MessageBytes: res.Stats.Bytes,
	}
}

// checkLevel compares a level's outcome with its reference, field by
// field and exactly.
func checkLevel(want levelRef, res *core.Result) error {
	got := refOf(res)
	if got != want {
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		return errCheck("level %s modelled outcome changed:\n got %s\nwant %s", want.Level, gb, wb)
	}
	return nil
}

// ladderRefFile is the reference the benchmark records at the commit
// that defines it: for each scale it was taken at (bodies, emulated
// threads), per seed the seven levels in order. It holds the measured
// scale and the self-test scale.
type ladderRefFile struct {
	Scales []ladderRefScale `json:"scales"`
}

type ladderRefScale struct {
	Bodies  int                   `json:"bodies"`
	Threads int                   `json:"threads"`
	Seeds   map[string][]levelRef `json:"seeds"`
}

//go:embed ladder_ref.json
var ladderRefJSON []byte

// ladderReference returns the recorded levels for seed at scale sc, or
// nil when none was recorded.
func ladderReference(sc scale, seed uint64) ([]levelRef, error) {
	var f ladderRefFile
	if err := json.Unmarshal(ladderRefJSON, &f); err != nil {
		return nil, fmt.Errorf("ladder_ref.json: %w", err)
	}
	for _, s := range f.Scales {
		if s.Bodies == sc.ladderBodies && s.Threads == sc.ladderThreads {
			return s.Seeds[strconv.FormatUint(ladderSeed(seed), 10)], nil
		}
	}
	return nil, nil
}

// recordLadderRef runs the ladder once per reference seed, at the
// measured and at the self-test scale, and writes the reference file.
func recordLadderRef(w io.Writer) error {
	var f ladderRefFile
	for _, sc := range []scale{fullScale, smallScale} {
		rs := ladderRefScale{Bodies: sc.ladderBodies, Threads: sc.ladderThreads, Seeds: map[string][]levelRef{}}
		for s := uint64(0); s < ladderRefSeeds; s++ {
			var refs []levelRef
			for l := core.Level(0); l < core.NumLevels; l++ {
				sim, err := core.New(ladderOptions(sc, l, s))
				if err != nil {
					return err
				}
				res, err := sim.Run()
				sim.Release()
				if err != nil {
					return err
				}
				refs = append(refs, refOf(res))
			}
			rs.Seeds[strconv.FormatUint(ladderSeed(s), 10)] = refs
		}
		f.Scales = append(f.Scales, rs)
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// levelRun is one level of one ladder.
type levelRun struct {
	res      *core.Result
	wall     time.Duration // steps + Finish, without set-up
	stepWall []time.Duration
	alloc    uint64
	gcPause  time.Duration
	ckpt     []byte
}

func ladderLevel(tr *tracer, parent int64, opts core.Options, withCkpt bool) (*levelRun, error) {
	sess := opts.Level.String()
	sim, _, _, err := setupSim(tr, parent, sess, opts)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	lr := &levelRun{}
	mw := openMemWindow()
	for k := 0; k < opts.Steps; k++ {
		if withCkpt && k == opts.Warmup {
			var buf bytes.Buffer
			sp := tr.begin(parent, "core", "Checkpoint", sess)
			err := sim.Checkpoint(&buf)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			lr.ckpt = buf.Bytes()
		}
		d, err := stepTimed(tr, parent, sess, sim)
		if err != nil {
			return nil, err
		}
		lr.stepWall = append(lr.stepWall, d)
		lr.wall += d
	}
	t0 := time.Now()
	sp := tr.begin(parent, "core", "Finish", sess)
	lr.res, err = sim.Finish()
	tr.end(sp)
	lr.wall += time.Since(t0)
	lr.alloc, lr.gcPause = mw.close()
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	return lr, nil
}

// runLadder is the simulate-ladder workload: every optimisation level
// once per ladder on the deterministic backend, where the harness's own
// wall clock is the cooperative scheduler and LogGP charging in upc.
func runLadder(cfg config, out *outcome) error {
	sc, tr := cfg.scale, cfg.tr
	out.headline = "run_s"
	root := tr.begin(0, "bench", "simulate-ladder", "")
	defer tr.end(root)
	ref, err := ladderReference(sc, cfg.seed)
	if err != nil {
		return err
	}

	cs := &cold{cfg: cfg, name: "simulate-ladder", recoverTask: "restore"}
	defer func() {
		if cs.recoverPath != "" {
			os.Remove(cs.recoverPath)
		}
	}()
	var (
		runs, stepsMS []float64
		runP99        []float64 // each ladder's p99 step
		levelS        [core.NumLevels][]float64
		first         [core.NumLevels]levelRef
		ckptBytes     int
		alloc         uint64
		gcPause       time.Duration
		nsteps        int
		counts        levelRef
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// A round is one ladder, then two fresh-process set-ups of every level
	// and two fresh-process restores of the subspace level's checkpoint.
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		var wall time.Duration
		var ladderSteps []float64
		for l := core.Level(0); l < core.NumLevels; l++ {
			opts := ladderOptions(sc, l, cfg.seed)
			lr, err := ladderLevel(tr, root, opts, r == 0 && l == core.LevelSubspace)
			out.attempted += int64(opts.Steps)
			if err != nil {
				return err
			}
			wall += lr.wall
			levelS[l] = append(levelS[l], sec(lr.wall))
			alloc += lr.alloc
			gcPause += lr.gcPause
			for _, d := range lr.stepWall {
				stepsMS = append(stepsMS, ms(d))
				ladderSteps = append(ladderSteps, ms(d))
			}
			nsteps += len(lr.stepWall)
			got := refOf(lr.res)
			name := "modelled outcome = reference, level " + got.Level
			switch {
			case r > 0:
				// Later ladders must repeat the first exactly.
				if got != first[l] {
					out.check(name, checkLevel(first[l], lr.res))
				}
			case ref == nil:
				out.check(name, errCheck("no reference recorded for %d bodies, %d threads, seed %d",
					sc.ladderBodies, sc.ladderThreads, ladderSeed(cfg.seed)))
			default:
				out.check(name, checkLevel(ref[l], lr.res))
			}
			if r == 0 {
				first[l] = got
				counts.Handoffs += got.Handoffs
				counts.SpinYields += got.SpinYields
				counts.Messages += got.Messages
				counts.MessageBytes += got.MessageBytes
				counts.Interactions += got.Interactions
			}
			if r == 0 && l == core.LevelSubspace {
				ckptBytes = len(lr.ckpt)
				if cs.recoverPath, err = writeTemp(cfg.work, lr.ckpt); err != nil {
					return err
				}
				initial, err := nbody.GenerateScenario(opts.Scenario, opts.Bodies, opts.Seed)
				if err != nil {
					return err
				}
				sp := tr.begin(root, "bench", "check-physics", "")
				checkPhysics(out, opts, initial, lr.res.Bodies, sc.forceSample, cfg.seed)
				tr.end(sp)
			}
		}
		runs = append(runs, sec(wall))
		runP99 = append(runP99, quantile(ladderSteps, 0.99))
		if err := cs.round(2); err != nil {
			return err
		}
	}
	setups, creates, restores := cs.setups, cs.creates, cs.recovers

	out.set("setup_s", "s", median(setups))
	out.set("run_s", "s", median(runs))
	out.set("step_ms_p50", "ms", median(stepsMS))
	out.set("step_ms_p99", "ms", median(runP99)) // as in native-plummer
	out.set("create_ms_p50", "ms", median(creates))
	out.set("requests_per_s", "1/s", float64(len(stepsMS))/sum(runs))
	out.set("recover_s", "s", median(restores))
	out.set("peak_rss_mb", "MB", peakRSSMB())
	out.notef("simulate-ladder: %d bodies, %d emulated threads, plummer seed %d, ladder walls %.3f s, set-ups %.3f s, restores %.3f s",
		sc.ladderBodies, sc.ladderThreads, ladderSeed(cfg.seed), runs, setups, restores)

	if tr == nil {
		return nil
	}
	for l := range levelS {
		out.set("core.level_s."+levelNames[l], "s", median(levelS[l]))
	}
	out.set("upc.handoffs", "count", float64(counts.Handoffs))
	out.set("upc.spin_yields", "count", float64(counts.SpinYields))
	out.set("upc.messages", "count", float64(counts.Messages))
	out.set("upc.message_bytes", "B", float64(counts.MessageBytes))
	out.set("upc.ns_per_message", "ns", 1e9*median(runs)/float64(counts.Messages))
	out.set("core.checkpoint_bytes", "B", float64(ckptBytes))
	out.set("core.restore_ms", "ms", 1e3*median(restores))
	out.set("go.alloc_bytes_per_step", "B", float64(alloc)/float64(nsteps))
	out.set("go.gc_pause_ms", "ms", ms(gcPause))
	return nil
}

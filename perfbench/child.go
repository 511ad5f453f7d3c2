package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"upcbh/internal/core"
	"upcbh/internal/serve"
	"upcbh/internal/store"
)

// Set-up and recovery are what a fresh process pays: a user starts bhrun
// or restarts bhserve, and the process has no recycled storage and no
// resident heap yet. So the benchmark measures them in child processes
// of its own binary, one set-up or recovery each, and reports the
// median; in-process repeats would instead measure whatever storage the
// collector had left pooled.

// childEnv selects child mode; its value is the child task.
const childEnv = "PERFBENCH_CHILD"

// childReport is what a child prints: the measured durations, and for a
// recovery the number of sessions re-admitted.
type childReport struct {
	CreateS   []float64 `json:"create_s,omitempty"`
	SetupS    float64   `json:"setup_s"`
	Recovered int       `json:"recovered,omitempty"`
}

// inChild runs task in a child process and returns its report.
func inChild(task string, args ...string) (childReport, error) {
	var r childReport
	exe, err := os.Executable()
	if err != nil {
		return r, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+task)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("child %s: %w: %s", task, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := json.Unmarshal(outb, &r); err != nil {
		return r, fmt.Errorf("child %s: bad report %q: %w", task, outb, err)
	}
	return r, nil
}

// childMain runs one child task and prints its report; it is the whole
// process when childEnv is set.
func childMain(task string, args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var (
		name  = fs.String("workload", "", "")
		seed  = fs.Uint64("seed", 1, "")
		small = fs.Bool("small", false, "")
		path  = fs.String("path", "", "checkpoint file or store directory")
		level = fs.String("level", "", "simulate-ladder level to set up")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := fullScale
	if *small {
		sc = smallScale
	}
	var rep childReport
	switch task {
	case "setup":
		var optsList []core.Options
		switch *name {
		case "native-plummer":
			optsList = []core.Options{nativeOptions(sc, sc.nativeThreads, *seed)}
		case "simulate-ladder":
			l, err := core.ParseLevel(*level)
			if err != nil {
				return err
			}
			optsList = []core.Options{ladderOptions(sc, l, *seed)}
		case "serve-mixed":
			dir, err := os.MkdirTemp(*path, "setup-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			t0 := time.Now()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				return err
			}
			srv := serve.New(sc.serveConfig(st))
			rep.SetupS = time.Since(t0).Seconds()
			srv.Shutdown()
		default:
			return fmt.Errorf("unknown workload %q", *name)
		}
		for _, opts := range optsList {
			sim, create, setup, err := setupSim(nil, 0, "", opts)
			if err != nil {
				return err
			}
			sim.Release()
			rep.CreateS = append(rep.CreateS, create.Seconds())
			rep.SetupS += setup.Seconds()
		}
	case "restore":
		data, err := os.ReadFile(*path)
		if err != nil {
			return err
		}
		t0 := time.Now()
		sim, err := core.Restore(bytes.NewReader(data))
		if err != nil {
			return err
		}
		rep.SetupS = time.Since(t0).Seconds()
		sim.Release()
	case "recover":
		t0 := time.Now()
		st, err := store.Open(*path, store.Options{})
		if err != nil {
			return err
		}
		srv := serve.New(sc.serveConfig(st))
		rep.SetupS = time.Since(t0).Seconds()
		rep.Recovered = int(srv.Stats().Sessions.Recovered)
		srv.Shutdown()
	default:
		return fmt.Errorf("unknown child task %q", task)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

// childArgs are the flags every child of a workload run receives.
func childArgs(name string, cfg config, extra ...string) []string {
	args := []string{"--workload", name, "--seed", strconv.FormatUint(cfg.seed, 10)}
	if cfg.scale == smallScale {
		args = append(args, "--small")
	}
	return append(args, extra...)
}

// cold collects a run's fresh-process samples. A workload takes a few
// in every round of its measured loop, so they spread over the whole
// measured time like the run's own samples, and a burst of host noise
// cannot land on all of them.
type cold struct {
	cfg  config
	name string
	// recoverTask and recoverPath name what a recovery sample does:
	// "restore" a checkpoint file, or "recover" a store directory. An
	// empty path takes no recovery samples yet.
	recoverTask, recoverPath string

	setups, creates, recovers []float64
	// recoverErr is the first recovery that did not re-admit every
	// checkpointed session.
	recoverErr error
}

// round takes n set-up samples and, once there is something to recover,
// n recovery samples. A simulate-ladder set-up sample is the sum of its
// seven levels, each set up in a process of its own.
func (c *cold) round(n int) error {
	levels := []string{""}
	if c.name == "simulate-ladder" {
		levels = levelNames
	}
	for i := 0; i < n; i++ {
		var total float64
		for _, l := range levels {
			r, err := inChild("setup", childArgs(c.name, c.cfg, "--path", c.cfg.work, "--level", l)...)
			if err != nil {
				return err
			}
			total += r.SetupS
			for _, t := range r.CreateS {
				c.creates = append(c.creates, 1e3*t)
			}
		}
		c.setups = append(c.setups, total)
		if c.recoverPath == "" {
			continue
		}
		r, err := inChild(c.recoverTask, childArgs(c.name, c.cfg, "--path", c.recoverPath)...)
		if err != nil {
			return err
		}
		if c.recoverTask == "recover" && r.Recovered != c.cfg.scale.recoverSess && c.recoverErr == nil {
			c.recoverErr = errCheck("a restarted server recovered %d sessions, want %d", r.Recovered, c.cfg.scale.recoverSess)
		}
		c.recovers = append(c.recovers, r.SetupS)
	}
	return nil
}

// writeTemp stores data in a new file in the scratch directory.
func writeTemp(dir string, data []byte) (string, error) {
	f, err := os.CreateTemp(dir, "ckpt-")
	if err != nil {
		return "", err
	}
	_, werr := f.Write(data)
	if err := errors.Join(werr, f.Close()); err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("write checkpoint: %w", err)
	}
	return f.Name(), nil
}

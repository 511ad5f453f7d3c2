package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"upcbh/internal/core"
	"upcbh/internal/nbody"
)

// The self-test runs every workload at tiny sizes and proves that each
// output check trips on deliberately wrong input. Run it from this
// directory with `go test ./...`.

func TestMain(m *testing.M) {
	// The workloads measure set-up and recovery in child processes of
	// their own binary, which here is the test binary.
	if task := os.Getenv(childEnv); task != "" {
		if err := childMain(task, os.Args[1:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the metrics the
// program reports: same names, same units, same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestWorkloadsSmall runs each workload untraced and traced at the
// self-test sizes: every check passes and every metric is printed with
// its unit.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 3, seconds: 0.2, work: t.TempDir(), scale: smallScale}
			res, out, err := runWorkload(w, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			var buf bytes.Buffer
			printHuman(&buf, w.name, cfg, out)
			if !res.Correct {
				t.Fatalf("%s traced=%t: checks failed:\n%s", w.name, traced, buf.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
					t.Errorf("%s traced=%t: metric %s = %+v", w.name, traced, m.name, got)
				}
				if !strings.Contains(buf.String(), "metric "+m.name+" ") || !strings.Contains(buf.String(), " "+m.unit+"\n") {
					t.Errorf("%s traced=%t: %s not printed with its unit", w.name, traced, m.name)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// smallRun runs opts to completion through core.
func smallRun(t *testing.T, opts core.Options) *core.Result {
	t.Helper()
	res, err := uninterrupted(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestForceCheckTrips: the physics checks pass on a real run and fail
// once the accelerations or the velocities are perturbed.
func TestForceCheckTrips(t *testing.T) {
	opts := nativeOptions(smallScale, 2, 5)
	res := smallRun(t, opts)
	initial, err := nbody.GenerateScenario(opts.Scenario, opts.Bodies, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rms := forceErrRMS(res.Bodies, opts.Eps, opts.Dt, 256, 1)
	if err := checkForceErr(rms, opts.Theta); err != nil {
		t.Fatalf("unperturbed run: %v", err)
	}
	if err := checkMomentum(momentumDrift(initial, res.Bodies), opts.Theta); err != nil {
		t.Fatalf("unperturbed run: %v", err)
	}
	bad := append([]nbody.Body(nil), res.Bodies...)
	for i := range bad {
		bad[i].Acc = bad[i].Acc.Scale(1.2)
	}
	if err := checkForceErr(forceErrRMS(bad, opts.Eps, opts.Dt, 256, 1), opts.Theta); err == nil {
		t.Error("force check passed accelerations scaled by 1.2")
	}
	bad = append([]nbody.Body(nil), res.Bodies...)
	for i := 0; i < len(bad); i += 2 {
		bad[i].Vel.X += 0.5
	}
	if err := checkMomentum(momentumDrift(initial, bad), opts.Theta); err == nil {
		t.Error("momentum check passed perturbed velocities")
	}
}

// TestLadderCheckTrips: a level matches its own reference and fails
// once a modelled total or a count is altered.
func TestLadderCheckTrips(t *testing.T) {
	res := smallRun(t, ladderOptions(smallScale, core.LevelSubspace, 2))
	ref := refOf(res)
	if err := checkLevel(ref, res); err != nil {
		t.Fatal(err)
	}
	altered := *res
	altered.Phases[core.PhaseForce] = math.Nextafter(altered.Phases[core.PhaseForce], math.Inf(1))
	if checkLevel(ref, &altered) == nil {
		t.Error("ladder check passed a force total one ulp off")
	}
	altered = *res
	altered.Sched.Handoffs++
	if checkLevel(ref, &altered) == nil {
		t.Error("ladder check passed an altered handoff count")
	}
	recorded, err := ladderReference(smallScale, 1)
	if err != nil || len(recorded) != int(core.NumLevels) {
		t.Fatalf("no self-test-scale reference recorded (%v)", err)
	}
}

// TestRecoveredCheckTrips: a recovered result equal to the
// uninterrupted run passes; any difference fails.
func TestRecoveredCheckTrips(t *testing.T) {
	for _, native := range []bool{false, true} {
		opts := sessionOptions(smallScale, native, 7)
		want := smallRun(t, opts)
		got := smallRun(t, opts)
		if err := compareRecovered(opts, got, want); err != nil {
			t.Fatalf("native=%t: identical rerun rejected: %v", native, err)
		}
		bad := *got
		bad.Bodies = append([]nbody.Body(nil), got.Bodies...)
		bad.Bodies[3].Pos.Y = math.Nextafter(bad.Bodies[3].Pos.Y, 0)
		if compareRecovered(opts, &bad, want) == nil {
			t.Errorf("native=%t: a body one ulp off passed", native)
		}
		bad = *got
		bad.Interactions++
		if compareRecovered(opts, &bad, want) == nil {
			t.Errorf("native=%t: an altered interaction count passed", native)
		}
		if !native {
			bad = *got
			bad.Phases[core.PhaseTree] *= 1.0000001
			if compareRecovered(opts, &bad, want) == nil {
				t.Error("simulate: an altered modelled phase total passed")
			}
		}
	}
}

func TestStreamCheckTrips(t *testing.T) {
	if err := checkStream([]int{0, 1, 2, 3}, 3); err != nil {
		t.Fatal(err)
	}
	for _, frames := range [][]int{{0, 2, 2, 3}, {0, 3, 1, 3}, {0, 1, 2}, nil} {
		if checkStream(frames, 3) == nil {
			t.Errorf("stream %v passed", frames)
		}
	}
}

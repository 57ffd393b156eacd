package main

// The benchmark's self-test: every workload at tiny sizes for a fraction
// of a second, traced and untraced, and every checker shown to reject a
// planted wrong answer. Run it from this directory:
//
//	go test -race ./...

import (
	"bytes"
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/workload"
)

func smallRun(t *testing.T, name string, trace bool, plant string) (*run, output, int) {
	t.Helper()
	r := newRun(config{workload: name, seed: 3, seconds: 0.3, trace: trace, small: true, plant: plant})
	if err := workloads[name](r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out, code := r.finish()
	return r, out, code
}

func TestWorkloadsSmall(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			r, out, code := smallRun(t, name, trace, "")
			if code != 0 || !out.Correct || out.Failed != 0 {
				t.Fatalf("%s trace=%v: code %d, %d of %d failed: %v", name, trace, code, out.Failed, out.Attempted, r.failures)
			}
			want := e2eUnits
			if trace {
				want = layerUnits
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := out.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s in %s, want %s", name, trace, m, got.Unit, unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
		}
	}
}

// TestPlantedAnswersFailTheRun corrupts one checked answer of each kind
// inside a real run and requires the run to fail.
func TestPlantedAnswersFailTheRun(t *testing.T) {
	for _, c := range []struct{ workload, plant string }{
		{"tick-battle", "query"},
		{"tick-battle", "checkpoint"},
		{"tick-battle", "naive"},
		{"session-sentry", "maintained"},
		{"serve-frames", "http"},
		{"serve-frames", "push"},
	} {
		_, out, code := smallRun(t, c.workload, false, c.plant)
		if code == 0 || out.Correct || out.Failed == 0 {
			t.Errorf("%s with a planted %s answer: code %d, correct %v, %d failed", c.workload, c.plant, code, out.Correct, out.Failed)
		}
	}
}

func TestCheckersRejectPlantedAnswers(t *testing.T) {
	spec := workload.Spec{Units: 50, Density: 0.02, Seed: 5}
	env := workload.Generate(spec)
	rows := env.Rows
	z := zone{x: rows[0][colPosX], y: rows[0][colPosY], r: 10}
	n, hp := bruteZone(rows, z)
	if err := checkZone(rows, z, []float64{n, hp}); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	for _, bad := range [][]float64{{n + 1, hp}, {n, hp * (1 + 1e-6)}, {n}} {
		if checkZone(rows, z, bad) == nil {
			t.Errorf("zone answer %v accepted, brute force %v %v", bad, n, hp)
		}
	}

	wc := newWorldChecker(spec.Units, spec.Side())
	if err := wc.check(rows); err != nil {
		t.Fatalf("generated world rejected: %v", err)
	}
	for name, plant := range map[string]func(r [][]float64){
		"duplicate key":    func(r [][]float64) { r[1][colKey] = r[0][colKey] },
		"shared square":    func(r [][]float64) { r[1][colPosX], r[1][colPosY] = r[0][colPosX]+0.5, r[0][colPosY] },
		"outside world":    func(r [][]float64) { r[1][colPosX] = spec.Side() },
		"non-finite state": func(r [][]float64) { r[1][colHealth] = math.NaN() },
	} {
		c := env.Clone()
		plant(c.Rows)
		if wc.check(c.Rows) == nil {
			t.Errorf("world with a %s accepted", name)
		}
	}

	if wc.check(rows[1:]) == nil {
		t.Error("world with a lost unit accepted")
	}

	if err := checkNaiveIndexed(5, 60, 2, false); err != nil {
		t.Fatalf("naive vs indexed: %v", err)
	}
	if checkNaiveIndexed(5, 60, 2, true) == nil {
		t.Error("a planted indexed difference was accepted")
	}

	prog, err := game.Compile()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(prog, game.NewMechanics(), env, engine.Options{
		Mode: engine.Indexed, Categoricals: game.Categoricals(), Seed: 5, Side: spec.Side(), MoveSpeed: 1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("a", engine.Command{Op: engine.OpSet, Key: 3, Col: "morale", Val: 2}); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := eng.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	tune := engine.Options{Workers: 1}
	if _, err := checkRoundTrip(ck.Bytes(), tune); err != nil {
		t.Fatalf("true checkpoint rejected: %v", err)
	}
	bad := append([]byte(nil), ck.Bytes()...)
	bad[len(bad)/2] ^= 1
	if _, err := checkRoundTrip(bad, tune); err == nil {
		t.Error("a corrupted checkpoint was accepted")
	}

	j := []engine.StampedCommand{{Tick: 1, Origin: "a", Seq: 0}, {Tick: 1, Origin: "a", Seq: 1}, {Tick: 1, Origin: "b", Seq: 0}}
	if err := checkJournal(j); err != nil {
		t.Fatalf("canonical journal rejected: %v", err)
	}
	for _, bad := range [][]engine.StampedCommand{
		{j[0], j[0]},
		{j[1], j[0]},
		{j[2], j[0]},
	} {
		if checkJournal(bad) == nil {
			t.Errorf("journal %v accepted", bad)
		}
	}

	before := engine.RunStats{CommandsApplied: 4}
	if err := checkApplied(2, before, engine.RunStats{CommandsApplied: 6}); err != nil {
		t.Fatalf("true accounting rejected: %v", err)
	}
	if checkApplied(3, before, engine.RunStats{CommandsApplied: 6}) == nil {
		t.Error("a lost command was accepted")
	}
	if checkApplied(2, before, engine.RunStats{CommandsApplied: 6, CommandsRejected: 1}) == nil {
		t.Error("a rejected command was accepted")
	}
}

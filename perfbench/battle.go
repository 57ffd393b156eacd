package main

// tick-battle: the paper's Figure 10 battle, closed loop over
// Engine.Tick. The whole army churns, so every tick rebuilds every index
// and runs the full effect query. Each frame adds a light spectator and
// player load (a batch of Zone reads and single set-column commands, and
// an autosave every fifth tick) so the read, write and checkpoint metrics
// exist here too; they are a few percent of a frame.

import (
	"fmt"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

type battleSize struct {
	units, queries, submits, perSubmit, ckEvery, sampleEvery, naiveUnits, naiveTicks int
}

func battleSizes(small bool) battleSize {
	if small {
		return battleSize{units: 150, queries: 10, submits: 5, perSubmit: 2, ckEvery: 3, sampleEvery: 2, naiveUnits: 60, naiveTicks: 2}
	}
	return battleSize{units: 4000, queries: 25, submits: 5, perSubmit: 5, ckEvery: 5, sampleEvery: 5, naiveUnits: 200, naiveTicks: 4}
}

type battle struct {
	eng   *engine.Engine
	q     *engine.Query
	spec  workload.Spec
	opts  engine.Options
	zones []zone
}

func setupBattle(r *run, sz battleSize) (*battle, error) {
	seed := r.cfg.seed
	prog, err := r.compileTimed(game.Script, game.Schema(), game.Consts())
	if err != nil {
		return nil, err
	}
	spec := workload.Spec{Units: sz.units, Density: 0.01, Seed: seed, Formation: workload.Scattered}
	t := time.Now()
	army := workload.Generate(spec)
	r.setupSample("workload.generate_ms", time.Since(t))
	opts := engine.Options{
		Mode: engine.Indexed, Categoricals: game.Categoricals(), Seed: seed,
		Side: spec.Side(), MoveSpeed: 1, Workers: 1, CompactJournal: true,
	}
	eng, err := engine.New(prog, game.NewMechanics(), army, opts)
	if err != nil {
		return nil, err
	}
	q, err := engine.CompileQuery(zoneSrc, game.Schema(), game.Consts())
	if err != nil {
		return nil, err
	}
	b := &battle{eng: eng, q: q, spec: spec, opts: opts, zones: zones(seeded(seed, 1), army.Rows, 64, 6, 24)}
	// Warm up: let the armies engage and the query path run once.
	if err := eng.Run(3); err != nil {
		return nil, err
	}
	if _, err := eng.Query(q, b.zones[0].args()...); err != nil {
		return nil, err
	}
	return b, nil
}

func runBattle(r *run) error {
	sz := battleSizes(r.cfg.small)
	var b *battle
	setups, err := setUp(func() (err error) {
		b, err = setupBattle(r, sz)
		return err
	})
	if err != nil {
		return err
	}
	eng := b.eng
	sess := engine.NewSession(eng) // the traced replays read through it
	rnd := seeded(r.cfg.seed, 2)
	wc := newWorldChecker(sz.units, b.spec.Side())
	origins := players(sz.submits)

	var tr *traceSide
	if r.tr != nil {
		if tr, err = startTraceSide(r, sz.units, ""); err != nil {
			return err
		}
		defer tr.close()
	}

	var w window
	var l lat
	dur := time.Duration(r.cfg.seconds * float64(time.Second))
	start := eng.Stats
	var shapeEnd engine.RunStats
	acked := 0
	answers := make([][]float64, sz.queries)
	frames := 0
	for ; w.elapsed() < dur; frames++ {
		sampled := r.tr != nil && frames%sz.sampleEvery == 0
		var pre *table.Table
		if sampled {
			pre = eng.Env().Clone()
		}
		before := eng.Stats
		tickNo := eng.TickCount()

		w.resume()
		err := timed(&l.tick, eng.Tick)
		r.attempt("ticks", err)
		if err != nil {
			w.pause()
			break
		}
		base := frames * sz.queries
		for j := 0; j < sz.queries; j++ {
			z := b.zones[(base+j)%len(b.zones)]
			var got []float64
			err := timed(&l.query, func() error {
				var err error
				got, err = eng.Query(b.q, z.args()...)
				return err
			})
			answers[j] = got
			if err != nil {
				r.attempt("queries", err)
				answers[j] = nil
			}
		}
		sent := 0
		for _, origin := range origins {
			cmds := make([]engine.Command, sz.perSubmit)
			for k := range cmds {
				cmds[k] = engine.Command{Op: engine.OpSet, Key: int64(rnd.IntN(sz.units)), Col: "morale", Val: float64(1 + rnd.IntN(12))}
			}
			err := timed(&l.command, func() error { return eng.Submit(origin, cmds...) })
			r.attempt("commands", err)
			if err == nil {
				sent += len(cmds)
			}
		}
		var ck []byte
		if frames%sz.ckEvery == sz.ckEvery-1 {
			ck = r.autosave(&l, eng.Checkpoint)
		}
		w.pause()

		// Checks, outside the window.
		if err := wc.check(eng.Env().Rows); err != nil {
			r.fail("ticks", fmt.Errorf("after tick %d: %w", tickNo+1, err))
		}
		// The previous frame's commands applied at the start of this tick.
		if err := checkApplied(acked, before, eng.Stats); err != nil {
			r.fail("commands", err)
		}
		acked = sent
		for j, got := range answers {
			if got == nil {
				continue
			}
			if r.planted("query") && frames == 1 && j == 0 {
				got = append([]float64(nil), got...)
				got[0]++
			}
			r.attempt("queries", checkZone(eng.Env().Rows, b.zones[(base+j)%len(b.zones)], got))
		}
		if ck != nil {
			r.checkpointChecked(ck, b.opts, eng.Journal())
		}
		if frames == shapeFrames-1 {
			shapeEnd = eng.Stats
		}
		if sampled {
			if err := tr.sample(frames, sess, r.cfg.seed, tickNo, pre, l.tick[len(l.tick)-1], b.opts, b.zones[frames%len(b.zones)],
				replays{maintained: true}); err != nil {
				return err
			}
		}
	}
	if frames < shapeFrames {
		shapeEnd = eng.Stats
	}
	r.shape(start, shapeEnd, min(frames, shapeFrames))
	r.setLayer("engine.journal_entries", float64(len(eng.Journal())))
	r.setE2E("heap_live_mb", heapLiveMB(b))
	if r.tr != nil {
		r.splitQueries(l.query, sz.queries)
		r.tr.vals["engine.submit_us"] = usList(l.command)
	}
	r.report(&w, &l, setups, sz.units, frames)

	// The paper's equivalence, on a small battle of this seed.
	r.attempt("ticks", checkNaiveIndexed(r.cfg.seed, sz.naiveUnits, sz.naiveTicks, r.planted("naive")))
	return nil
}

package main

// session-sentry: the low-churn garrison of the repository's
// incremental-maintenance benchmark, driven in frames through Session
// with Incremental and CompactJournal on. Only the scouts move, so
// maintenance, delta capture, answer maintenance, admission and
// checkpoint encoding carry the tick rather than index builds, with
// writes and reads beside it in the same process.

import (
	"fmt"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

const sentryScript = `
aggregate WatchEnemyKnights(u) :=
  count(*) as n, sum(e.health) as hp, avg(e.posx) as cx
  over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight
    and e.posy >= u.posy - u.sight and e.posy <= u.posy + u.sight
    and e.player <> u.player and e.unittype = 0;

aggregate OwnLine(u) :=
  count(*) as n, avg(e.posx) as cx, avg(e.posy) as cy, stddev(e.posx) as sx
  over e where e.player = u.player and e.unittype = 0;

aggregate NearestScout(u) :=
  nearestkey() as key
  over e where e.player = u.player and e.unittype = 2;

action Patrol(u, tx, ty) :=
  on e where e.key = u.key
  set movevect_x = tx - u.posx, movevect_y = ty - u.posy;

function main(u) {
  (let w = WatchEnemyKnights(u))
  (let l = OwnLine(u)) {
    if u.unittype = 2 then
      perform Patrol(u, u.posx + Random(1) % 9 - 4, u.posy + Random(2) % 9 - 4);
    else { if w.n + l.n + NearestScout(u) < -1 then perform Patrol(u, l.cx, l.cy) }
  }
}
`

type sentrySize struct {
	units, submits, perSubmit, queries, dashboards, ckEvery, sampleEvery int
}

func sentrySizes(small bool) sentrySize {
	if small {
		return sentrySize{units: 300, submits: 5, perSubmit: 2, queries: 16, dashboards: 4, ckEvery: 3, sampleEvery: 2}
	}
	return sentrySize{units: 10000, submits: 5, perSubmit: 5, queries: 25, dashboards: 4, ckEvery: 5, sampleEvery: 20}
}

type sentry struct {
	sess       *engine.Session
	q          *engine.Query
	spec       workload.Spec
	opts       engine.Options
	zones      []zone
	dashboards []zone
	maxHP      []float64
}

func setupSentry(r *run, sz sentrySize) (*sentry, error) {
	seed := r.cfg.seed
	prog, err := r.compileTimed(sentryScript, game.Schema(), game.Consts())
	if err != nil {
		return nil, err
	}
	spec := workload.Spec{Units: sz.units, Density: 0.01, Seed: seed, Formation: workload.BattleLines, Mix: [3]int{20, 4, 1}}
	t := time.Now()
	army := workload.Generate(spec)
	r.setupSample("workload.generate_ms", time.Since(t))
	opts := engine.Options{
		Mode: engine.Indexed, Categoricals: game.Categoricals(), Seed: seed,
		Side: spec.Side(), MoveSpeed: 1, Workers: 1, Incremental: true, CompactJournal: true,
	}
	eng, err := engine.New(prog, game.NewMechanics(), army, opts)
	if err != nil {
		return nil, err
	}
	q, err := engine.CompileQuery(zoneSrc, game.Schema(), game.Consts())
	if err != nil {
		return nil, err
	}
	rnd := seeded(seed, 1)
	s := &sentry{
		sess: engine.NewSession(eng), q: q, spec: spec, opts: opts,
		zones:      zones(rnd, army.Rows, 64, 8, 40),
		dashboards: zones(rnd, army.Rows, sz.dashboards, 20, 60),
		maxHP:      make([]float64, sz.units),
	}
	for _, row := range army.Rows {
		s.maxHP[int(row[colKey])] = row[colMaxHP]
	}
	// Warm up: maintenance engages from the third tick; the dashboards
	// and the ad-hoc query path run once.
	for _, z := range s.dashboards {
		if _, err := s.sess.QueryMaintained(q, z.args()...); err != nil {
			return nil, err
		}
	}
	if err := s.sess.Step(3); err != nil {
		return nil, err
	}
	if _, err := s.sess.Query(q, s.zones[0].args()...); err != nil {
		return nil, err
	}
	return s, nil
}

func runSentry(r *run) error {
	sz := sentrySizes(r.cfg.small)
	var s *sentry
	setups, err := setUp(func() (err error) {
		s, err = setupSentry(r, sz)
		return err
	})
	if err != nil {
		return err
	}
	sess, eng := s.sess, s.sess.Engine()
	rnd := seeded(r.cfg.seed, 2)
	wc := newWorldChecker(sz.units, s.spec.Side())
	origins := players(sz.submits)

	var tr *traceSide
	if r.tr != nil {
		if tr, err = startTraceSide(r, sz.units, sentryScript); err != nil {
			return err
		}
		defer tr.close()
	}

	var w window
	var l lat
	var maintained samples
	dur := time.Duration(r.cfg.seconds * float64(time.Second))
	start := sess.Stats()
	var shapeEnd engine.RunStats
	acked := 0
	answers := make([][]float64, sz.queries)
	dash := make([][]float64, sz.dashboards)
	frames := 0
	for ; w.elapsed() < dur; frames++ {
		sampled := r.tr != nil && frames%sz.sampleEvery == 0
		var pre *table.Table
		if sampled {
			pre = eng.Env().Clone()
		}
		before := sess.Stats()
		tickNo := sess.Tick()

		w.resume()
		err := timed(&l.tick, func() error { return sess.Step(1) })
		r.attempt("ticks", err)
		if err != nil {
			w.pause()
			break
		}
		sent := 0
		for j, origin := range origins {
			cmds := make([]engine.Command, sz.perSubmit)
			for k := range cmds {
				key := rnd.IntN(sz.units)
				if j%2 == 0 {
					cmds[k] = engine.Command{Op: engine.OpSet, Key: int64(key), Col: "health", Val: float64(1 + rnd.IntN(int(s.maxHP[key])))}
				} else {
					cmds[k] = engine.Command{Op: engine.OpSet, Key: int64(key), Col: "morale", Val: float64(1 + rnd.IntN(12))}
				}
			}
			err := timed(&l.command, func() error { return sess.Submit(origin, cmds...) })
			r.attempt("commands", err)
			if err == nil {
				sent += len(cmds)
			}
		}
		base := frames * sz.queries
		for j := range answers {
			z := s.zones[(base+j)%len(s.zones)]
			err := timed(&l.query, func() error {
				var err error
				answers[j], err = sess.Query(s.q, z.args()...)
				return err
			})
			if err != nil {
				r.attempt("queries", err)
				answers[j] = nil
			}
		}
		for j, z := range s.dashboards {
			err := timed(&maintained, func() error {
				var err error
				dash[j], err = sess.QueryMaintained(s.q, z.args()...)
				return err
			})
			if err != nil {
				r.attempt("queries", err)
				dash[j] = nil
			}
		}
		var ck []byte
		if frames%sz.ckEvery == sz.ckEvery-1 {
			ck = r.autosave(&l, sess.Checkpoint)
		}
		w.pause()

		// Checks, outside the window.
		rows := eng.Env().Rows
		if err := wc.check(rows); err != nil {
			r.fail("ticks", fmt.Errorf("after tick %d: %w", tickNo+1, err))
		}
		if err := checkApplied(acked, before, sess.Stats()); err != nil {
			r.fail("commands", err)
		}
		acked = sent
		for j, got := range answers {
			if got != nil {
				r.attempt("queries", checkZone(rows, s.zones[(base+j)%len(s.zones)], got))
			}
		}
		for j, got := range dash {
			if got == nil {
				continue
			}
			if r.planted("maintained") && frames == 1 && j == 0 {
				got = []float64{got[0], got[1] + 1}
			}
			r.attempt("queries", checkZone(rows, s.dashboards[j], got))
		}
		if ck != nil {
			r.checkpointChecked(ck, s.opts, sess.Journal())
		}
		if frames == shapeFrames-1 {
			shapeEnd = sess.Stats()
		}
		if sampled {
			if err := tr.sample(frames, sess, r.cfg.seed, tickNo, pre, l.tick[len(l.tick)-1], s.opts, s.zones[frames%len(s.zones)],
				replays{}); err != nil {
				return err
			}
		}
	}
	if frames < shapeFrames {
		shapeEnd = sess.Stats()
	}
	r.shape(start, shapeEnd, min(frames, shapeFrames))
	r.setLayer("engine.journal_entries", float64(len(sess.Journal())))
	r.setE2E("heap_live_mb", heapLiveMB(s))
	if r.tr != nil {
		r.splitQueries(l.query, sz.queries)
		r.tr.vals["engine.submit_us"] = usList(l.command)
		r.tr.vals["engine.maintained_read_us"] = usList(maintained)
	}
	r.report(&w, &l, setups, sz.units, frames)
	return nil
}

package main

// Output checks. Each one recomputes what the program answered from the
// world rows alone (or from a property the answer must have) and returns
// an error on any mismatch. They run between frames, outside the timed
// window, and never compare against a stored copy of earlier output.

import (
	"bytes"
	"fmt"
	"math"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

// zoneSrc is the observation query every workload reads with: the unit
// count and summed health inside a square window.
const zoneSrc = `
aggregate Zone(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`

// zone is one Zone probe: centre and half-extent.
type zone struct{ x, y, r float64 }

func (z zone) args() []float64 { return []float64{z.x, z.y, z.r} }

var (
	colKey    = game.Schema().MustCol("key")
	colPosX   = game.Schema().MustCol("posx")
	colPosY   = game.Schema().MustCol("posy")
	colHealth = game.Schema().MustCol("health")
	colMaxHP  = game.Schema().MustCol("maxhealth")
)

// bruteZone counts and sums over every row, the way the query's
// definition reads.
func bruteZone(rows [][]float64, z zone) (n, hp float64) {
	lx, hx, ly, hy := z.x-z.r, z.x+z.r, z.y-z.r, z.y+z.r
	for _, row := range rows {
		x, y := row[colPosX], row[colPosY]
		if x >= lx && x <= hx && y >= ly && y <= hy {
			n++
			hp += row[colHealth]
		}
	}
	return n, hp
}

// checkZone compares one Zone answer with the brute-force count (exact)
// and sum (within 1e-9 relative: the summation order differs).
func checkZone(rows [][]float64, z zone, got []float64) error {
	n, hp := bruteZone(rows, z)
	if len(got) != 2 {
		return fmt.Errorf("zone %v: %d outputs, want 2", z, len(got))
	}
	if got[0] != n {
		return fmt.Errorf("zone %v: count %v, brute force %v", z, got[0], n)
	}
	if !closeRel(got[1], hp) {
		return fmt.Errorf("zone %v: health sum %v, brute force %v", z, got[1], hp)
	}
	return nil
}

func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// worldChecker checks the world invariants after a tick: the population
// is n, the keys are exactly 0…n−1, every unit sits on its own integer
// square inside [0, side)², and every column is finite.
type worldChecker struct {
	n    int
	side int
	seen []uint32 // per key: generation it was last seen in
	occ  []uint32 // per square: generation it was last occupied in
	gen  uint32
}

func newWorldChecker(n int, side float64) *worldChecker {
	s := int(side)
	return &worldChecker{n: n, side: s, seen: make([]uint32, n), occ: make([]uint32, s*s)}
}

func (c *worldChecker) check(rows [][]float64) error {
	if len(rows) != c.n {
		return fmt.Errorf("population %d, want %d", len(rows), c.n)
	}
	c.gen++
	side := float64(c.side)
	for i, row := range rows {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("row %d column %d is not finite: %v", i, j, v)
			}
		}
		k := row[colKey]
		if k != math.Trunc(k) || k < 0 || k >= float64(c.n) {
			return fmt.Errorf("row %d has key %v outside 0…%d", i, k, c.n-1)
		}
		if c.seen[int(k)] == c.gen {
			return fmt.Errorf("key %v appears twice", k)
		}
		c.seen[int(k)] = c.gen
		x, y := row[colPosX], row[colPosY]
		if x < 0 || x >= side || y < 0 || y >= side {
			return fmt.Errorf("unit %v at (%v, %v) outside [0, %v)²", k, x, y, side)
		}
		cell := int(math.Floor(y))*c.side + int(math.Floor(x))
		if c.occ[cell] == c.gen {
			return fmt.Errorf("unit %v shares square (%d, %d)", k, int(x), int(y))
		}
		c.occ[cell] = c.gen
	}
	return nil
}

// sameRows reports the first cell where two environments differ by more
// than 1e-9 relative: the evaluators sum aggregates in different orders,
// so averages may differ in the last bits.
func sameRows(a, b *table.Table) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("populations %d and %d", a.Len(), b.Len())
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !closeRel(a.Rows[i][j], b.Rows[i][j]) {
				return fmt.Errorf("row %d column %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	return nil
}

// checkNaiveIndexed runs a small battle under the naive interpreter and
// the indexed engine side by side and requires the same world after every
// tick: the paper's equivalence of the two evaluators.
func checkNaiveIndexed(seed uint64, units, ticks int, plant bool) error {
	prog, err := game.Compile()
	if err != nil {
		return err
	}
	spec := workload.Spec{Units: units, Density: 0.04, Seed: seed, Formation: workload.Scattered}
	var engs [2]*engine.Engine
	for i, mode := range []engine.Mode{engine.Naive, engine.Indexed} {
		engs[i], err = engine.New(prog, game.NewMechanics(), workload.Generate(spec), engine.Options{
			Mode: mode, Categoricals: game.Categoricals(), Seed: seed,
			Side: spec.Side(), MoveSpeed: 1, Workers: 1,
		})
		if err != nil {
			return err
		}
	}
	for t := 0; t < ticks; t++ {
		for _, e := range engs {
			if err := e.Tick(); err != nil {
				return err
			}
		}
		if plant && t == ticks-1 {
			engs[1].Env().Rows[0][colHealth] += 1
		}
		if err := sameRows(engs[0].Env(), engs[1].Env()); err != nil {
			return fmt.Errorf("naive and indexed differ after tick %d: %w", t+1, err)
		}
	}
	return nil
}

// checkRoundTrip reopens a checkpoint and requires that checkpointing the
// reopened session gives back the same bytes. It returns the reopened
// session for replays.
func checkRoundTrip(data []byte, tune engine.Options) (*engine.Session, error) {
	sess, err := engine.Open(bytes.NewReader(data), game.NewMechanics(), tune)
	if err != nil {
		return nil, fmt.Errorf("open checkpoint: %w", err)
	}
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		return nil, fmt.Errorf("re-checkpoint: %w", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		return nil, fmt.Errorf("checkpoint of %d bytes reopens to %d different bytes", len(data), buf.Len())
	}
	return sess, nil
}

// checkJournal requires unique, canonically ordered (tick, origin, seq)
// stamps.
func checkJournal(entries []engine.StampedCommand) error {
	for i := 1; i < len(entries); i++ {
		p, c := entries[i-1], entries[i]
		if p.Tick < c.Tick || (p.Tick == c.Tick && (p.Origin < c.Origin || (p.Origin == c.Origin && p.Seq < c.Seq))) {
			continue
		}
		return fmt.Errorf("journal entries %d and %d out of canonical order: (%d,%s,%d) then (%d,%s,%d)",
			i-1, i, p.Tick, p.Origin, p.Seq, c.Tick, c.Origin, c.Seq)
	}
	return nil
}

// checkApplied requires that every acknowledged command was applied and
// none rejected, from the engine's counters before and after.
func checkApplied(acked int, before, after engine.RunStats) error {
	applied := after.CommandsApplied - before.CommandsApplied
	rejected := after.CommandsRejected - before.CommandsRejected
	if rejected != 0 {
		return fmt.Errorf("%d commands rejected", rejected)
	}
	if applied != acked {
		return fmt.Errorf("%d commands acknowledged, %d applied", acked, applied)
	}
	return nil
}

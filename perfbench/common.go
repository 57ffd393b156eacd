package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	"github.com/epicscale/sgl"
	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/table"
)

// e2eUnits are the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":           "s",
	"unit_ticks_per_s":  "1/s",
	"tick_ms_p50":       "ms",
	"tick_ms_p90":       "ms",
	"allocs_per_tick":   "count",
	"alloc_mb_per_tick": "MB",
	"heap_live_mb":      "MB",
	"query_ms_p50":      "ms",
	"query_ms_p99":      "ms",
	"command_ms_p50":    "ms",
	"command_ms_p90":    "ms",
	"checkpoint_ms_p50": "ms",
	"checkpoint_kb":     "KB",
}

// layerUnits are the per-layer metrics every traced run reports. A layer
// a workload never reaches reads 0.
var layerUnits = map[string]string{
	"sgl.compile_ms":              "ms",
	"algebra.plan_ms":             "ms",
	"workload.generate_ms":        "ms",
	"server.create_ms":            "ms",
	"exec.freeze_ms":              "ms",
	"exec.freeze_allocs":          "count",
	"exec.maintain_ms":            "ms",
	"exec.index_builds":           "count",
	"exec.index_reuses":           "count",
	"exec.index_patches":          "count",
	"exec.maintain_fallbacks":     "count",
	"exec.dirty_rows":             "count",
	"exec.reuse_ratio":            "ratio",
	"exec.tree_probes":            "count",
	"exec.kd_probes":              "count",
	"exec.sweeps":                 "count",
	"exec.scan_probes":            "count",
	"algebra.effect_query_ms":     "ms",
	"algebra.effect_query_allocs": "count",
	"engine.tick_self_ms":         "ms",
	"engine.effects":              "count",
	"engine.moves":                "count",
	"engine.moves_blocked":        "count",
	"engine.deaths":               "count",
	"engine.submit_us_p50":        "us",
	"engine.commands_applied":     "count",
	"engine.query_fresh_ms":       "ms",
	"engine.query_warm_us":        "us",
	"engine.maintained_read_us":   "us",
	"engine.answer_hits":          "count",
	"engine.answer_patches":       "count",
	"engine.answer_rederives":     "count",
	"engine.open_ms":              "ms",
	"engine.journal_entries":      "count",
	"server.query_handler_us":     "us",
	"server.transport_us":         "us",
	"server.command_handler_us":   "us",
	"server.step_handler_ms":      "ms",
	"server.pushes":               "count",
	"server.push_bytes":           "B",
	"go.gc_cycles":                "count",
	"go.gc_pause_ms":              "ms",
	"proc.cpu_ms":                 "ms",
	"trace.tick_ms_p50":           "ms",
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// shapeFrames is how many leading frames of the window the per-tick
// work counters cover: a fixed prefix, so they repeat exactly for a seed
// whatever the run length.
const shapeFrames = 20

// shape sets the per-tick work counters from the engine's counters at
// the start of the window and after the shape prefix.
func (r *run) shape(a, b engine.RunStats, ticks int) {
	if ticks == 0 {
		return
	}
	per := func(v int) float64 { return float64(v) / float64(ticks) }
	ia, ib := a.IndexStats, b.IndexStats
	r.setLayer("engine.effects", per(b.EffectsApplied-a.EffectsApplied))
	r.setLayer("engine.moves", per(b.Moves-a.Moves))
	r.setLayer("engine.moves_blocked", per(b.MovesBlocked-a.MovesBlocked))
	r.setLayer("engine.deaths", per(b.Deaths-a.Deaths))
	r.setLayer("engine.commands_applied", per(b.CommandsApplied-a.CommandsApplied))
	r.setLayer("engine.answer_hits", per(b.AnswerHits-a.AnswerHits))
	r.setLayer("engine.answer_patches", per(b.AnswerPatches-a.AnswerPatches))
	r.setLayer("engine.answer_rederives", per(b.AnswerRederives-a.AnswerRederives))
	builds, reuses := ib.IndexBuilds-ia.IndexBuilds, ib.IndexReuses-ia.IndexReuses
	r.setLayer("exec.index_builds", per(builds))
	r.setLayer("exec.index_reuses", per(reuses))
	r.setLayer("exec.index_patches", per(ib.IndexPatches-ia.IndexPatches))
	r.setLayer("exec.maintain_fallbacks", per(ib.MaintainFallbacks-ia.MaintainFallbacks))
	r.setLayer("exec.dirty_rows", per(b.DirtyRows-a.DirtyRows))
	if builds+reuses > 0 {
		r.setLayer("exec.reuse_ratio", float64(reuses)/float64(builds+reuses))
	}
	r.setLayer("exec.tree_probes", per(ib.TreeProbes-ia.TreeProbes))
	r.setLayer("exec.kd_probes", per(ib.KDProbes-ia.KDProbes))
	r.setLayer("exec.sweeps", per(ib.Sweeps-ia.Sweeps))
	r.setLayer("exec.scan_probes", per(ib.ScanProbes-ia.ScanProbes))
}

// lat holds the latency samples of one run.
type lat struct {
	tick, query, command, checkpoint samples
	ckBytes                          []float64
}

// report sets the end-to-end metrics from the window and the samples,
// and the per-layer metrics that come from the window and the tracer.
func (r *run) report(w *window, l *lat, setups []float64, units, ticks int) {
	r.setE2E("setup_s", medianF(setups))
	r.setE2E("unit_ticks_per_s", float64(units)*float64(ticks)/w.wall.Seconds())
	r.setE2E("tick_ms_p50", l.tick.ms(0.5))
	r.setE2E("tick_ms_p90", l.tick.ms(0.9))
	r.setE2E("allocs_per_tick", float64(w.mallocs)/float64(ticks))
	r.setE2E("alloc_mb_per_tick", float64(w.bytes)/1e6/float64(ticks))
	r.setE2E("query_ms_p50", l.query.ms(0.5))
	r.setE2E("query_ms_p99", l.query.ms(0.99))
	r.setE2E("command_ms_p50", l.command.ms(0.5))
	r.setE2E("command_ms_p90", l.command.ms(0.9))
	r.setE2E("checkpoint_ms_p50", l.checkpoint.ms(0.5))
	r.setE2E("checkpoint_kb", medianF(l.ckBytes)/1e3)

	for name := range layerUnits {
		if _, ok := r.layer[name]; !ok {
			r.setLayer(name, 0)
		}
	}
	r.setLayer("go.gc_cycles", float64(w.gcs)/float64(ticks))
	r.setLayer("go.gc_pause_ms", float64(w.pauseNs)/1e6/float64(ticks))
	r.setLayer("proc.cpu_ms", float64(w.cpu)/1e6/float64(ticks))
	r.setLayer("trace.tick_ms_p50", l.tick.ms(0.5))
	if t := r.tr; t != nil {
		for _, name := range sortedKeys(t.vals) {
			if _, ok := layerUnits[name]; ok {
				r.setLayer(name, t.median(name))
			}
		}
		if s := t.vals["engine.submit_us"]; len(s) > 0 {
			r.setLayer("engine.submit_us_p50", medianF(s))
		}
		if c := t.vals["client.query_us"]; len(c) > 0 {
			r.setLayer("server.transport_us", medianF(c)-t.median("server.query_handler_us"))
		}
	}
}

// compileTimed compiles an SGL script and its plan through the public
// entry points, recording sgl.compile and algebra.plan.
func (r *run) compileTimed(src string, schema *table.Schema, consts map[string]float64) (*sgl.Program, error) {
	t := time.Now()
	prog, err := sgl.CompileScript(src, schema, consts)
	if err != nil {
		return nil, err
	}
	r.setupSample("sgl.compile_ms", time.Since(t))
	t = time.Now()
	if _, err := sgl.CompilePlan(prog); err != nil {
		return nil, err
	}
	r.setupSample("algebra.plan_ms", time.Since(t))
	return prog, nil
}

// setupSample records a set-up layer time (median over the set-ups).
func (r *run) setupSample(name string, d time.Duration) {
	if r.tr != nil {
		r.tr.add(name, ms(d))
	}
}

// zones draws n probe windows centred on units of the initial world.
func zones(rnd *rand.Rand, rows [][]float64, n int, rmin, rmax float64) []zone {
	out := make([]zone, n)
	for i := range out {
		row := rows[rnd.IntN(len(rows))]
		out[i] = zone{x: row[colPosX], y: row[colPosY], r: rmin + float64(rnd.IntN(int(rmax-rmin)+1))}
	}
	return out
}

func queryBody(z zone) string {
	return fmt.Sprintf(`{"src":%q,"args":[%v,%v,%v]}`, zoneSrc, z.x, z.y, z.r)
}

// postJSON posts body and returns the response body; a non-2xx status is
// an error.
func postJSON(c *http.Client, url, body string) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// seeded returns the benchmark's input generator for a seed and stream.
func seeded(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// setUp runs fn setupReps times and returns each set-up's time in
// seconds; the state fn leaves behind last is what the run measures.
func setUp(fn func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return secs, nil
}

// autosave times one checkpoint into a buffer and returns its bytes (nil
// when it failed, which counts the checkpoint failed).
func (r *run) autosave(l *lat, checkpoint func(io.Writer) error) []byte {
	var buf bytes.Buffer
	err := timed(&l.checkpoint, func() error { return checkpoint(&buf) })
	l.ckBytes = append(l.ckBytes, float64(buf.Len()))
	if err != nil {
		r.attempt("checkpoints", err)
		return nil
	}
	return buf.Bytes()
}

// players names n command origins, one Submit each per frame. With 5 a
// frame, the first call after the tick, which finds cold caches, is 20%
// of the calls: command_ms_p90 then lies inside that mode, not on its
// edge (see README.md, the 3–20% rule).
func players(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("player-%02d", i)
	}
	return out
}

// checkpointChecked checks one autosave: it must reopen to the same
// bytes, and the journal it was taken with must be canonical.
func (r *run) checkpointChecked(ck []byte, tune engine.Options, journal []engine.StampedCommand) {
	if r.planted("checkpoint") && len(ck) > 64 {
		ck = append([]byte(nil), ck...)
		ck[len(ck)/2] ^= 1
	}
	_, err := checkRoundTrip(ck, tune)
	r.attempt("checkpoints", err)
	if err := checkJournal(journal); err != nil {
		r.fail("commands", err)
	}
}

// splitQueries files a traced run's real query latencies by position:
// the first read after each tick pays the query's index build (fresh),
// the rest probe it (warm).
func (r *run) splitQueries(s samples, perTick int) {
	for i, d := range s {
		if i%perTick == 0 {
			r.tr.add("engine.query_fresh_ms", ms(d))
		} else {
			r.tr.add("engine.query_warm_us", us(d))
		}
	}
}

func usList(s samples) []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = us(d)
	}
	return out
}

// httpServer is an http.Server on a loopback listener.
type httpServer struct {
	hs   *http.Server
	done chan struct{}
}

// listen serves h on a fresh loopback port and returns its base URL.
func listen(h http.Handler) (*httpServer, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, "http://" + ln.Addr().String(), nil
}

// close closes the listener and every connection, and waits for Serve
// to return.
func (s *httpServer) close() {
	_ = s.hs.Close() // only the listener's close error; nothing to act on
	<-s.done
}

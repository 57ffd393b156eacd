package main

// The traced run. On sampled frames it replays each layer's public call
// on a copy of the live world, right after the real call, and records a
// span around every replayed call. Spans stay in memory and are written
// out when the run ends; per-layer metrics are medians over the samples.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/server"
	"github.com/epicscale/sgl/internal/table"
)

// span is one timed call: times are nanoseconds since the tracer began.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 0 = root
	Frame  int    `json:"frame"`
}

type tracer struct {
	t0    time.Time
	spans []span
	vals  map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), vals: map[string][]float64{}} }

func (t *tracer) begin(name string, parent, frame int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Frame: frame})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// call records fn as a span and returns its duration.
func (t *tracer) call(name string, parent, frame int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, frame)
	err := fn()
	return t.end(id), err
}

// add records one sample of a per-layer value.
func (t *tracer) add(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

// median of a layer's samples (0 when the layer had none).
func (t *tracer) median(name string) float64 { return medianF(t.vals[name]) }

// selfTimes sums, per span name, the span's duration minus the part its
// children cover: the layer's own time.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	self, _ := json.Marshal(map[string]any{"self_ms": t.selfTimes()})
	fmt.Fprintf(w, "%s\n", self)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replayExec replays one tick's index and effect-query layers on copies
// of the world: pre is the world before the tick, post after it. It
// records exec.freeze (NewIndexed + Freeze on pre), algebra.effect_query
// (RunTick over that frozen provider), exec.maintain (MaintainFrom the
// frozen provider with a delta the benchmark diffs itself, then Freeze
// of what maintenance left) and engine.tick_self (the real tick minus
// its index and effect-query spans).
func (t *tracer) replayExec(frame int, e *engine.Engine, seed uint64, tick int64, pre, post *table.Table, tickDur time.Duration, incremental bool) error {
	root := t.begin("replay.tick", 0, frame)
	defer t.end(root)
	an, prog := e.Analyzer(), e.Program()
	src := rng.New(seed)

	var prov *exec.Indexed
	m0 := mallocs()
	freeze, _ := t.call("exec.freeze", root, frame, func() error {
		prov = exec.NewIndexed(an, pre, src.Tick(tick))
		prov.Freeze()
		return nil
	})
	t.add("exec.freeze_allocs", float64(mallocs()-m0))

	m0 = mallocs()
	effect, err := t.call("algebra.effect_query", root, frame, func() error {
		_, err := algebra.RunTick(prog, pre, prov, src.Tick(tick))
		return err
	})
	if err != nil {
		return fmt.Errorf("replay effect query: %w", err)
	}
	t.add("algebra.effect_query_allocs", float64(mallocs()-m0))

	d := diffRows(pre, post)
	maintain, _ := t.call("exec.maintain", root, frame, func() error {
		next := exec.NewIndexed(an, post, src.Tick(tick+1))
		next.MaintainFrom(prov, d, engine.DefaultIncrementalThreshold)
		next.Freeze()
		return nil
	})

	index := freeze
	if incremental {
		index = maintain
	}
	t.add("exec.freeze_ms", ms(freeze))
	t.add("exec.maintain_ms", ms(maintain))
	t.add("algebra.effect_query_ms", ms(effect))
	t.add("engine.tick_self_ms", ms(tickDur-index-effect))
	return nil
}

// diffRows is the benchmark's own delta: every row whose bits changed,
// with a mask of the changed columns.
func diffRows(a, b *table.Table) exec.Delta {
	var d exec.Delta
	if a.Len() != b.Len() {
		return d
	}
	for i := range a.Rows {
		var m uint64
		for c := range a.Rows[i] {
			if math.Float64bits(a.Rows[i][c]) != math.Float64bits(b.Rows[i][c]) {
				m |= 1 << min(c, 63)
			}
		}
		if m != 0 {
			d.Dirty = append(d.Dirty, i)
			d.Masks = append(d.Masks, m)
		}
	}
	return d
}

// replays selects the engine-level reads and writes replayEngine repeats
// on a reopened copy; a workload that makes those calls itself times the
// real calls instead.
type replays struct{ query, maintained, submit bool }

// replayEngine reopens the world from a checkpoint of it (engine.open)
// and repeats the engine-level reads and writes on that copy.
func (t *tracer) replayEngine(frame int, ck []byte, tune engine.Options, z zone, which replays) error {
	root := t.begin("replay.engine", 0, frame)
	defer t.end(root)
	var sess *engine.Session
	open, err := t.call("engine.open", root, frame, func() error {
		var err error
		sess, err = engine.Open(bytes.NewReader(ck), game.NewMechanics(), tune)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay open: %w", err)
	}
	t.add("engine.open_ms", ms(open))
	q, err := engine.CompileQuery(zoneSrc, game.Schema(), game.Consts())
	if err != nil {
		return err
	}
	if which.query {
		for i := 0; i < 5; i++ {
			d, err := t.call("engine.query", root, frame, func() error {
				_, err := sess.Query(q, z.args()...)
				return err
			})
			if err != nil {
				return err
			}
			if i == 0 {
				t.add("engine.query_fresh_ms", ms(d))
			} else {
				t.add("engine.query_warm_us", us(d))
			}
		}
	}
	if which.maintained {
		for i := 0; i < 3; i++ {
			d, err := t.call("engine.query_maintained", root, frame, func() error {
				_, err := sess.QueryMaintained(q, z.args()...)
				return err
			})
			if err != nil {
				return err
			}
			if i > 0 { // the first read derives the answer
				t.add("engine.maintained_read_us", us(d))
			}
		}
	}
	if which.submit {
		d, err := t.call("engine.submit", root, frame, func() error {
			return sess.Submit("replay", engine.Command{Op: engine.OpSet, Key: 0, Col: "morale", Val: 7})
		})
		if err != nil {
			return err
		}
		t.add("engine.submit_us", us(d))
	}
	return nil
}

// replayServer restores the world from a checkpoint of it into the
// server's registry and replays the query, command and step handlers
// through Server.ServeHTTP on an in-memory recorder. The same query also
// goes over the server's loopback listener, to measure the transport
// share of a client's latency.
func (t *tracer) replayServer(frame int, ts *traceSide, ck []byte, tune engine.Options, z zone) error {
	srv := ts.srv
	root := t.begin("replay.server", 0, frame)
	defer t.end(root)
	name := fmt.Sprintf("replay-%d", frame)
	if _, err := srv.Registry().Restore(name, bytes.NewReader(ck), "", tune, 0); err != nil {
		return fmt.Errorf("replay restore: %w", err)
	}
	defer srv.Registry().Delete(name)
	path := "/v1/sessions/" + name
	qbody := queryBody(z)
	for i := 0; i < 5; i++ {
		d, err := t.call("server.query_handler", root, frame, func() error {
			return serveRecorded(srv, "POST", path+"/query", qbody)
		})
		if err != nil {
			return err
		}
		t.add("server.query_handler_us", us(d))
	}
	for i := 0; i < 5; i++ {
		d, err := t.call("client.query", root, frame, func() error {
			_, err := postJSON(ts.client, ts.base+path+"/query", qbody)
			return err
		})
		if err != nil {
			return err
		}
		t.add("client.query_us", us(d))
	}
	cbody := `{"origin":"replay","commands":[{"op":"set","key":0,"col":"morale","val":7}]}`
	d, err := t.call("server.command_handler", root, frame, func() error {
		return serveRecorded(srv, "POST", path+"/commands", cbody)
	})
	if err != nil {
		return err
	}
	t.add("server.command_handler_us", us(d))
	d, err = t.call("server.step_handler", root, frame, func() error {
		return serveRecorded(srv, "POST", path+"/step", `{"ticks":1}`)
	})
	if err != nil {
		return err
	}
	t.add("server.step_handler_ms", ms(d))
	return nil
}

// serveRecorded runs one request through the handler, in memory.
func serveRecorded(h http.Handler, method, path, body string) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

// createReplay times a world creation through the server's create
// handler (server.create), then deletes the world again.
func (t *tracer) createReplay(srv *server.Server, body string) error {
	d, err := t.call("server.create", 0, 0, func() error {
		return serveRecorded(srv, "POST", "/v1/sessions", body)
	})
	if err != nil {
		return err
	}
	srv.Registry().Delete("probe")
	t.add("server.create_ms", ms(d))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// traceSide is the traced run's serving replay target: a server on a
// loopback listener and a client of it (the workload's own, for
// serve-frames).
type traceSide struct {
	r      *run
	srv    *server.Server
	base   string
	client *http.Client
	stop   func()
}

// startTraceSide starts a replay server on a loopback listener and
// times one world creation of the workload's size through it.
func startTraceSide(r *run, units int, script string) (*traceSide, error) {
	reg := server.NewRegistry()
	srv := server.New(reg, "")
	hs, base, err := listen(srv)
	if err != nil {
		return nil, err
	}
	ts := &traceSide{r: r, srv: srv, base: base, client: &http.Client{}, stop: func() { hs.close(); reg.Close() }}
	body := fmt.Sprintf(`{"name":"probe","units":%d,"seed":%d,"script":%q}`, units, r.cfg.seed, script)
	if err := r.tr.createReplay(srv, body); err != nil {
		ts.close()
		return nil, err
	}
	return ts, nil
}

func (ts *traceSide) close() {
	if ts.stop != nil {
		ts.stop()
	}
}

// sample replays one frame's layers: pre is the world before the frame's
// tick, tickNo the tick it ran, tickDur its measured time.
func (ts *traceSide) sample(frame int, sess *engine.Session, seed uint64, tickNo int64, pre *table.Table,
	tickDur time.Duration, tune engine.Options, z zone, which replays) error {
	var post *table.Table
	var ck bytes.Buffer
	var err error
	sess.View(func(e *engine.Engine) {
		post = e.Env().Clone()
		err = ts.r.tr.replayExec(frame, e, seed, tickNo, pre, post, tickDur, tune.Incremental)
	})
	if err != nil {
		return err
	}
	if err := sess.Checkpoint(&ck); err != nil {
		return fmt.Errorf("replay checkpoint: %w", err)
	}
	if err := ts.r.tr.replayEngine(frame, ck.Bytes(), tune, z, which); err != nil {
		return err
	}
	return ts.r.tr.replayServer(frame, ts, ck.Bytes(), tune, z)
}

package main

// serve-frames: an in-process sgld server hosting two battle worlds,
// stepped synchronously over HTTP one frame at a time, so queries never
// race a running tick. Each frame steps both worlds, then sends a fixed
// batch of queries and command batches on one keep-alive connection,
// and streams an autosave checkpoint every few frames. One push
// subscriber on a second connection counts and checks the answers the
// server pushes after each tick.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/server"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

type serveSize struct {
	units, queries, commands, perCommand, ckEvery, sampleEvery int
}

func serveSizes(small bool) serveSize {
	if small {
		return serveSize{units: 120, queries: 20, commands: 10, perCommand: 2, ckEvery: 3, sampleEvery: 2}
	}
	return serveSize{units: 1000, queries: 25, commands: 10, perCommand: 2, ckEvery: 5, sampleEvery: 50}
}

var worldNames = [2]string{"w0", "w1"}

// pushed is one answer event the subscriber received.
type pushed struct {
	ev    server.SubscribeEvent
	bytes int
}

// served is one set-up of the serving workload.
type served struct {
	reg    *server.Registry
	srv    *server.Server
	hs     *httpServer
	base   string
	client *http.Client
	worlds [2]*server.World
	zones  [2][]zone
	sub    zone
	side   float64

	// The subscriber: its stream, what it received, and the answer each
	// tick should have pushed (computed by the generator after the step).
	subCancel context.CancelFunc
	subDone   chan error
	mu        sync.Mutex
	got       []pushed
	want      map[int64][2]float64
}

func (s *served) close() {
	if s.subCancel != nil {
		s.subCancel()
		<-s.subDone
	}
	s.client.CloseIdleConnections()
	s.reg.Close()
	s.hs.close()
}

func setupServe(r *run, sz serveSize) (*served, error) {
	seed := r.cfg.seed
	reg := server.NewRegistry()
	srv := server.New(reg, "")
	hs, base, err := listen(srv)
	if err != nil {
		return nil, err
	}
	s := &served{
		reg: reg, srv: srv, hs: hs, base: base,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		want:   map[int64][2]float64{},
		side:   workload.Spec{Units: sz.units, Density: 0.01}.Side(),
	}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if r.tr != nil {
		// The server compiles and generates inside its create handler;
		// the traced run times the same public calls on their own.
		if _, err := r.compileTimed(game.Script, game.Schema(), game.Consts()); err != nil {
			return nil, err
		}
		t := time.Now()
		workload.Generate(workload.Spec{Units: sz.units, Density: 0.01, Seed: seed, Formation: workload.Scattered})
		r.setupSample("workload.generate_ms", time.Since(t))
	}
	rnd := seeded(seed, 1)
	for i, name := range worldNames {
		// w0 compacts its journal, so its autosaves stay flat; w1 keeps
		// its whole journal for the end-of-run journal check.
		body := fmt.Sprintf(`{"name":%q,"units":%d,"seed":%d,"formation":"scattered","incremental":true,"workers":1,"compact":%v}`,
			name, sz.units, seed+uint64(i), i == 0)
		t := time.Now()
		if _, err := postJSON(s.client, base+"/v1/sessions", body); err != nil {
			return nil, err
		}
		r.setupSample("server.create_ms", time.Since(t))
		wd, found := reg.Get(name)
		if !found {
			return nil, fmt.Errorf("world %s missing after create", name)
		}
		s.worlds[i] = wd
		rows, _ := s.rows(i)
		s.zones[i] = zones(rnd, rows, 64, 6, 24)
		if i == 0 {
			s.sub = zones(rnd, rows, 1, 20, 40)[0]
		}
	}
	if err := s.subscribe(); err != nil {
		return nil, err
	}
	// Warm up: three ticks per world and one query each, so the query
	// cache holds the compiled source.
	for i := range worldNames {
		for t := 0; t < 3; t++ {
			if err := s.step(i); err != nil {
				return nil, err
			}
		}
		if _, err := s.query(i, s.zones[i][0]); err != nil {
			return nil, err
		}
	}
	ok = true
	return s, nil
}

// subscribe opens the push stream on its own connection and starts the
// reader goroutine; close stops it.
func (s *served) subscribe() error {
	q := url.Values{}
	q.Set("q", zoneSrc)
	q.Set("args", fmt.Sprintf("%v,%v,%v", s.sub.x, s.sub.y, s.sub.r))
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", s.base+"/v1/sessions/w0/subscribe?"+q.Encode(), nil)
	if err != nil {
		cancel()
		return err
	}
	// The answer on subscription is the one at the current tick.
	s.expect()
	c := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("subscribe: %s", resp.Status)
	}
	s.subCancel, s.subDone = cancel, make(chan error, 1)
	go func() {
		defer resp.Body.Close()
		s.subDone <- s.readPushes(resp.Body)
	}()
	return nil
}

// readPushes parses the event stream until it ends.
func (s *served) readPushes(body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "answer":
			var ev server.SubscribeEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return fmt.Errorf("push: %w", err)
			}
			s.mu.Lock()
			s.got = append(s.got, pushed{ev: ev, bytes: len(line)})
			s.mu.Unlock()
		}
	}
	return nil // the stream ends when the run cancels it
}

// expect records the answer the subscription must push for w0's current
// tick, computed from the world rows.
func (s *served) expect() {
	s.worlds[0].Session().View(func(e *engine.Engine) {
		n, hp := bruteZone(e.Env().Rows, s.sub)
		s.mu.Lock()
		s.want[e.TickCount()] = [2]float64{n, hp}
		s.mu.Unlock()
	})
}

func (s *served) step(i int) error {
	_, err := postJSON(s.client, s.base+"/v1/sessions/"+worldNames[i]+"/step", `{"ticks":1}`)
	if err == nil && i == 0 {
		s.expect()
	}
	return err
}

func (s *served) query(i int, z zone) (server.QueryResponse, error) {
	var resp server.QueryResponse
	data, err := postJSON(s.client, s.base+"/v1/sessions/"+worldNames[i]+"/query", queryBody(z))
	if err == nil {
		err = json.Unmarshal(data, &resp)
	}
	return resp, err
}

func (s *served) stats(i int) (st engine.RunStats) {
	s.worlds[i].Session().View(func(e *engine.Engine) { st = e.Stats })
	return st
}

// rows copies world i's rows and reads its tick, under the session lock.
func (s *served) rows(i int) (rows [][]float64, tick int64) {
	s.worlds[i].Session().View(func(e *engine.Engine) { rows, tick = e.Env().Clone().Rows, e.TickCount() })
	return rows, tick
}

func runServe(r *run) error {
	sz := serveSizes(r.cfg.small)
	var s *served
	setups, err := setUp(func() (err error) {
		if s != nil {
			s.close()
		}
		s, err = setupServe(r, sz)
		return err
	})
	if err != nil {
		return err
	}
	defer s.close()
	rnd := seeded(r.cfg.seed, 2)
	var wcs [2]*worldChecker
	for i := range wcs {
		wcs[i] = newWorldChecker(sz.units, s.side)
	}
	tune := engine.Options{Workers: 1, Incremental: true}
	var tr *traceSide
	if r.tr != nil {
		tr = &traceSide{r: r, srv: s.srv, base: s.base, client: s.client}
	}

	type answer struct {
		world int
		z     zone
		resp  server.QueryResponse
	}
	var w window
	var l lat
	dur := time.Duration(r.cfg.seconds * float64(time.Second))
	var start, shapeEnd [2]engine.RunStats
	for i := range start {
		start[i] = s.stats(i)
	}
	acked := [2]int{}
	total := [2]int{}
	var answers []answer
	frames := 0
	for ; w.elapsed() < dur; frames++ {
		sampled := r.tr != nil && frames%sz.sampleEvery == 0
		var pre *table.Table
		if sampled {
			s.worlds[0].Session().View(func(e *engine.Engine) { pre = e.Env().Clone() })
		}
		var before [2]engine.RunStats
		for i := range before {
			before[i] = s.stats(i)
		}
		tickNo := s.worlds[0].Session().Tick()

		w.resume()
		var stepDur time.Duration
		failed := false
		for i := range worldNames {
			err := timed(&l.tick, func() error {
				_, err := postJSON(s.client, s.base+"/v1/sessions/"+worldNames[i]+"/step", `{"ticks":1}`)
				return err
			})
			r.attempt("ticks", err)
			failed = failed || err != nil
			if i == 0 {
				stepDur = l.tick[len(l.tick)-1]
			}
		}
		if failed {
			w.pause()
			break
		}
		answers = answers[:0]
		for i := range worldNames {
			for j := 0; j < sz.queries; j++ {
				z := s.zones[i][(frames*sz.queries+j)%len(s.zones[i])]
				var resp server.QueryResponse
				err := timed(&l.query, func() error {
					var err error
					resp, err = s.query(i, z)
					return err
				})
				if err != nil {
					r.attempt("queries", err)
					continue
				}
				answers = append(answers, answer{world: i, z: z, resp: resp})
			}
		}
		sent := [2]int{}
		for j := 0; j < sz.commands; j++ {
			i, origin := j%2, [2]string{"north", "south"}[j/2%2]
			var cmds []string
			for k := 0; k < sz.perCommand; k++ {
				key := rnd.IntN(sz.units)
				if origin == "north" {
					cmds = append(cmds, fmt.Sprintf(`{"op":"set","key":%d,"col":"health","val":%d}`, key, 1+rnd.IntN(16)))
				} else {
					cmds = append(cmds, fmt.Sprintf(`{"op":"set","key":%d,"col":"morale","val":%d}`, key, 1+rnd.IntN(12)))
				}
			}
			body := fmt.Sprintf(`{"origin":%q,"commands":[%s]}`, origin, strings.Join(cmds, ","))
			err := timed(&l.command, func() error {
				data, err := postJSON(s.client, s.base+"/v1/sessions/"+worldNames[i]+"/commands", body)
				if err != nil {
					return err
				}
				var ack server.CommandsResponse
				if err := json.Unmarshal(data, &ack); err != nil {
					return err
				}
				if ack.Accepted != sz.perCommand {
					return fmt.Errorf("%d of %d commands accepted", ack.Accepted, sz.perCommand)
				}
				return nil
			})
			r.attempt("commands", err)
			if err == nil {
				sent[i] += sz.perCommand
			}
		}
		var ck []byte
		if frames%sz.ckEvery == sz.ckEvery-1 {
			err := timed(&l.checkpoint, func() error {
				resp, err := s.client.Get(s.base + "/v1/sessions/w0/checkpoint")
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if ck, err = io.ReadAll(resp.Body); err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("checkpoint: %s", resp.Status)
				}
				return nil
			})
			l.ckBytes = append(l.ckBytes, float64(len(ck)))
			if err != nil {
				r.attempt("checkpoints", err)
				ck = nil
			}
		}
		w.pause()

		// Checks, outside the window.
		s.expect()
		var rows [2][][]float64
		var ticks [2]int64
		for i := range worldNames {
			rows[i], ticks[i] = s.rows(i)
			if err := wcs[i].check(rows[i]); err != nil {
				r.fail("ticks", fmt.Errorf("%s after tick %d: %w", worldNames[i], ticks[i], err))
			}
			if err := checkApplied(acked[i], before[i], s.stats(i)); err != nil {
				r.fail("commands", fmt.Errorf("%s: %w", worldNames[i], err))
			}
			acked[i] = sent[i]
			total[i] += sent[i]
		}
		for k, a := range answers {
			got := a.resp.Values
			if r.planted("http") && frames == 1 && k == 0 {
				got = []float64{got[0] + 1, got[1]}
			}
			err := checkZone(rows[a.world], a.z, got)
			if err == nil && a.resp.Tick != ticks[a.world] {
				err = fmt.Errorf("answer labelled tick %d, world at %d", a.resp.Tick, ticks[a.world])
			}
			r.attempt("queries", err)
		}
		if ck != nil {
			_, err := checkRoundTrip(ck, engine.Options{Workers: 1, Incremental: true, CompactJournal: true})
			r.attempt("checkpoints", err)
		}
		if frames == shapeFrames-1 {
			for i := range shapeEnd {
				shapeEnd[i] = s.stats(i)
			}
		}
		if sampled {
			if err := tr.sample(frames, s.worlds[0].Session(), r.cfg.seed, tickNo, pre, stepDur, tune,
				s.zones[0][frames%len(s.zones[0])], replays{query: true, maintained: true, submit: true}); err != nil {
				return err
			}
		}
	}
	if frames < shapeFrames {
		for i := range shapeEnd {
			shapeEnd[i] = s.stats(i)
		}
	}
	r.shape(sumStats(start), sumStats(shapeEnd), 2*min(frames, shapeFrames))
	r.setE2E("heap_live_mb", heapLiveMB(s))

	// One more tick per world applies the last frame's commands.
	for i := range worldNames {
		before := s.stats(i)
		err := s.step(i)
		r.attempt("ticks", err)
		if err := checkApplied(acked[i], before, s.stats(i)); err != nil {
			r.fail("commands", fmt.Errorf("%s: %w", worldNames[i], err))
		}
	}

	// w1's journal: every acknowledged command, once, in canonical order.
	data, err := getBody(s.client, s.base+"/v1/sessions/w1/journal")
	var j server.JournalResponse
	if err == nil {
		err = json.Unmarshal(data, &j)
	}
	if err == nil {
		err = checkJournal(j.Entries)
	}
	if err == nil && len(j.Entries) != total[1] {
		err = fmt.Errorf("journal holds %d entries, %d commands acknowledged", len(j.Entries), total[1])
	}
	if err != nil {
		r.fail("commands", fmt.Errorf("w1 journal: %w", err))
	}
	r.setLayer("engine.journal_entries", float64(len(j.Entries)))

	// The pushes: every event the subscriber received carries the answer
	// of the tick it is labelled with.
	s.subCancel()
	<-s.subDone
	s.subCancel = nil
	s.mu.Lock()
	pushBytes := 0
	for k, p := range s.got {
		err := error(nil)
		want, ok := s.want[p.ev.Tick]
		got := p.ev.Values
		if r.planted("push") && k == 1 {
			got = []float64{got[0], got[1] + 1}
		}
		switch {
		case !ok:
			err = fmt.Errorf("push labelled tick %d, which no step produced", p.ev.Tick)
		case p.ev.Error != "":
			err = fmt.Errorf("push at tick %d: %s", p.ev.Tick, p.ev.Error)
		case len(got) != 2 || got[0] != want[0] || !closeRel(got[1], want[1]):
			err = fmt.Errorf("push at tick %d: %v, brute force %v", p.ev.Tick, got, want)
		}
		r.attempt("pushes", err)
		pushBytes += p.bytes
	}
	pushes := len(s.got)
	s.mu.Unlock()
	r.setLayer("server.pushes", float64(pushes)/float64(frames))
	r.setLayer("server.push_bytes", float64(pushBytes)/float64(frames))
	if r.tr != nil {
		r.tr.vals["client.query_us"] = usList(l.query)
	}
	r.report(&w, &l, setups, sz.units, 2*frames)
	return nil
}

func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// sumStats adds the counters shape reads.
func sumStats(s [2]engine.RunStats) engine.RunStats {
	var t engine.RunStats
	for _, x := range s {
		t.EffectsApplied += x.EffectsApplied
		t.Moves += x.Moves
		t.MovesBlocked += x.MovesBlocked
		t.Deaths += x.Deaths
		t.DirtyRows += x.DirtyRows
		t.CommandsApplied += x.CommandsApplied
		t.AnswerHits += x.AnswerHits
		t.AnswerPatches += x.AnswerPatches
		t.AnswerRederives += x.AnswerRederives
		t.IndexStats.Add(x.IndexStats)
	}
	return t
}

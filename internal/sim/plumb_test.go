package sim

import (
	"fmt"
	"strings"
	"testing"

	"dcsctrl/internal/sim/snap"
)

// TestCoalescedRunsOncePerInstant raises one action five times at an
// instant that has other work queued: the run is enqueued behind that
// work and the five raises give one run. At an instant with nothing
// queued, Chain runs the action inline at each raise, so three raises
// give three runs, each before the next raise, as three enqueued runs
// would. Pending reads true only between a raise and its run, and an
// action that raises itself again chains a second run rather than
// being swallowed.
func TestCoalescedRunsOncePerInstant(t *testing.T) {
	env := NewEnv()
	var trace strings.Builder
	var c *Coalesced
	again := false
	c = NewCoalesced(env, func() {
		if c.Pending() {
			t.Error("pending flag still set while the action runs")
		}
		fmt.Fprintf(&trace, "|run@%d", env.Now())
		if again {
			again = false
			c.Raise()
		}
	})
	env.Schedule(10, func() {
		for i := 0; i < 5; i++ {
			c.Raise()
		}
		if !c.Pending() {
			t.Error("raise with same-instant work queued ran inline")
		}
	})
	env.Schedule(10, func() { trace.WriteString("|other@10") })
	env.Schedule(20, func() {
		for i := 0; i < 3; i++ {
			c.Raise()
		}
	})
	env.Schedule(30, func() {
		again = true
		c.Raise()
	})
	env.Run(-1)
	want := "|other@10|run@10|run@20|run@20|run@20|run@30|run@30"
	if got := trace.String(); got != want {
		t.Fatalf("trace = %s, want %s", got, want)
	}
	if c.Pending() {
		t.Fatal("pending after the run")
	}
}

// TestDeferredOrderReuseAndPending schedules calls out of time order
// and checks they fire in (time, seq) order with their own arguments,
// that Pending counts the calls not yet fired (the firing one
// excluded), and that a second round reuses the first round's records.
func TestDeferredOrderReuseAndPending(t *testing.T) {
	env := NewEnv()
	var got []string
	var d *Deferred[string]
	d = NewDeferred(env, func(s string) {
		got = append(got, fmt.Sprintf("%s@%d/%d", s, env.Now(), d.Pending()))
	})
	round := func() {
		got = got[:0]
		d.After(30, "c")
		d.After(10, "a")
		d.After(20, "b1")
		d.After(20, "b2")
		if n := d.Pending(); n != 4 {
			t.Fatalf("Pending = %d after four calls, want 4", n)
		}
		env.Run(-1)
	}
	round()
	if want := "a@10/3 b1@20/2 b2@20/1 c@30/0"; strings.Join(got, " ") != want {
		t.Fatalf("fired %q, want %q", strings.Join(got, " "), want)
	}
	if len(d.free) != 4 {
		t.Fatalf("%d free records after the round, want 4", len(d.free))
	}
	records := map[*deferredCall[string]]bool{}
	for _, c := range d.free {
		records[c] = true
		if c.v != "" {
			t.Fatalf("free record still holds %q", c.v)
		}
	}
	base := env.Now()
	round()
	if want := fmt.Sprintf("a@%d/3 b1@%d/2 b2@%d/1 c@%d/0", base+10, base+20, base+20, base+30); strings.Join(got, " ") != want {
		t.Fatalf("second round fired %q, want %q", strings.Join(got, " "), want)
	}
	for _, c := range d.free {
		if !records[c] {
			t.Fatal("second round made a new record instead of reusing one")
		}
	}
}

// TestDeferredSteadyStateZeroAlloc requires a warmed-up Deferred to
// schedule and fire calls without allocating.
func TestDeferredSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv()
	sum := 0
	d := NewDeferred(env, func(v int) { sum += v })
	step := func() {
		d.After(Microsecond, 1)
		d.After(2*Microsecond, 2)
		env.Run(-1)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("%.1f allocs per two deferred calls, want 0", allocs)
	}
	// AllocsPerRun runs step once more than asked, to warm up.
	if d.Pending() != 0 || sum != 3*102 {
		t.Fatalf("pending %d, sum %d", d.Pending(), sum)
	}
}

// poolWorker is a handler worker of testPool: each job holds it for
// the job's value in µs.
type poolWorker struct {
	p      *Pool[int]
	job    int
	hasJob bool
	busy   bool
	done   *[]int
}

func (w *poolWorker) run(h *HandlerCtx) {
	for {
		if !w.hasJob {
			job, ok := w.p.GetH(h)
			if !ok {
				return
			}
			w.job, w.hasJob = job, true
		}
		if !w.busy {
			w.busy = true
			h.Rearm(Time(w.job) * Microsecond)
			return
		}
		*w.done = append(*w.done, w.job)
		w.p.Done()
		w.hasJob, w.busy = false, false
	}
}

// testPool returns a pool of handler workers, counting the workers it
// starts.
func testPool(env *Env, started *int, done *[]int) *Pool[int] {
	var p *Pool[int]
	p = NewPool(env, "test", func(job int, ok bool) {
		*started++
		env.SpawnHandler("worker", (&poolWorker{p: p, job: job, hasJob: ok, done: done}).run)
	})
	return p
}

// TestPoolSubmitReusesIdleWorkers submits two jobs at once (two
// workers start), then, once both finished, two more (the idle workers
// take them), then three (one more starts). A goroutine worker pool
// runs the same sequence.
func TestPoolSubmitReusesIdleWorkers(t *testing.T) {
	t.Run("handler", func(t *testing.T) {
		env := NewEnv()
		started := 0
		var done []int
		p := testPool(env, &started, &done)
		checkPoolReuse(t, env, p, &started, &done)
	})
	t.Run("goroutine", func(t *testing.T) {
		env := NewEnv()
		started := 0
		var done []int
		var p *Pool[int]
		get := func(w *Proc) int {
			for {
				if job, ok := p.GetH(w.Ctx()); ok {
					return job
				}
				w.Park()
			}
		}
		p = NewPool(env, "test", func(job int, ok bool) {
			started++
			env.Spawn("worker", func(w *Proc) {
				if !ok {
					job = get(w)
				}
				for {
					w.Sleep(Time(job) * Microsecond)
					done = append(done, job)
					p.Done()
					job = get(w)
				}
			})
		})
		checkPoolReuse(t, env, p, &started, &done)
	})
}

func checkPoolReuse(t *testing.T, env *Env, p *Pool[int], started *int, done *[]int) {
	t.Helper()
	wave := func(jobs ...int) {
		for _, j := range jobs {
			p.Submit(j)
		}
		env.Run(-1)
	}
	wave(2, 1)
	if *started != 2 || p.idle != 2 {
		t.Fatalf("first wave: %d started, %d idle; want 2, 2", *started, p.idle)
	}
	wave(3, 4)
	if *started != 2 || p.idle != 2 {
		t.Fatalf("second wave: %d started, %d idle; want 2 (reused), 2", *started, p.idle)
	}
	wave(5, 6, 7)
	if *started != 3 || p.idle != 3 {
		t.Fatalf("third wave: %d started, %d idle; want 3, 3", *started, p.idle)
	}
	if got := fmt.Sprint(*done); got != "[1 2 3 4 5 6 7]" {
		t.Fatalf("jobs finished in order %s", got)
	}
}

// TestPoolPrimeAndSnap saves a pool of three idle workers, loads the
// count into an empty pool (which primes three parked workers that
// then take jobs without starting new ones), and checks that a count
// above the bound is refused without priming anything.
func TestPoolPrimeAndSnap(t *testing.T) {
	env := NewEnv()
	started := 0
	var done []int
	src := testPool(env, &started, &done)
	src.Submit(1)
	src.Submit(1)
	src.Submit(1)
	env.Run(-1)
	save := func(max int) []byte {
		c := snap.NewSaver(snap.Header{Version: snap.Version})
		src.Snap(c, max, "callers hold at most %d jobs")
		b, err := c.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	load := func(data []byte, max int) (*Pool[int], *Env, *int, error) {
		env := NewEnv()
		n := 0
		p := testPool(env, &n, &done)
		c, _, err := snap.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		p.Snap(c, max, "callers hold at most %d jobs")
		return p, env, &n, c.Err()
	}

	p, env2, n, err := load(save(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	env2.Run(-1)
	if *n != 3 || p.idle != 3 {
		t.Fatalf("primed %d workers, %d idle; want 3, 3", *n, p.idle)
	}
	done = done[:0]
	p.Submit(2)
	p.Submit(1)
	p.Submit(3)
	env2.Run(-1)
	if *n != 3 || fmt.Sprint(done) != "[1 2 3]" {
		t.Fatalf("after priming: %d workers started, jobs done %v", *n, done)
	}

	// Three idle workers where at most two can be: the save refuses
	// to write it, and a load of the count refuses it too.
	c := snap.NewSaver(snap.Header{Version: snap.Version})
	src.Snap(c, 2, "callers hold at most %d jobs")
	if err := c.Err(); err == nil || err.Error() != "snap: test pool of 3 workers, callers hold at most 2 jobs" {
		t.Fatalf("save of an out-of-bound pool: %v", err)
	}
	p, env2, n, err = load(save(3), 2)
	if err == nil {
		t.Fatal("load accepted 3 idle workers with a bound of 2")
	}
	env2.Run(-1)
	if *n != 0 || p.idle != 0 {
		t.Fatalf("refused load primed %d workers, %d idle", *n, p.idle)
	}
}

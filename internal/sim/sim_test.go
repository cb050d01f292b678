package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// testSeed pins every random draw in this file to an explicit
// constant, so `go test -count=N` replays the exact same programs on
// every run. Without it, testing/quick falls back to a wall-clock
// seed — precisely the nondeterminism the dcslint nowallclock rule
// bans from simulation code (see internal/lint and DESIGN.md,
// "Determinism rules"). Test code is outside dcslint's scope, but the
// determinism suite only means something if its own inputs replay.
const testSeed = 0x5EEDED

// quickCfg returns a quick.Check config drawing from the pinned seed.
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{
		MaxCount: maxCount,
		Rand:     rand.New(rand.NewSource(testSeed)),
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Schedule(30*Microsecond, func() { got = append(got, 3) })
	e.Schedule(10*Microsecond, func() { got = append(got, 1) })
	e.Schedule(20*Microsecond, func() { got = append(got, 2) })
	e.Run(-1)
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30*Microsecond {
		t.Fatalf("final time = %v", e.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	e := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Microsecond, func() { got = append(got, i) })
	}
	e.Run(-1)
	for i, v := range got {
		if v != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestRunHorizonStopsAndResumes(t *testing.T) {
	e := NewEnv()
	fired := 0
	e.Schedule(10*Microsecond, func() { fired++ })
	e.Schedule(100*Microsecond, func() { fired++ })
	e.Run(50 * Microsecond)
	if fired != 1 {
		t.Fatalf("fired=%d before horizon", fired)
	}
	if e.Now() != 50*Microsecond {
		t.Fatalf("clock=%v, want horizon", e.Now())
	}
	if !e.Pending() {
		t.Fatal("event beyond horizon dropped")
	}
	e.Run(-1)
	if fired != 2 || e.Now() != 100*Microsecond {
		t.Fatalf("after resume fired=%d now=%v", fired, e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		wake = p.Now()
	})
	e.Run(-1)
	if wake != 42*Microsecond {
		t.Fatalf("woke at %v", wake)
	}
	if e.Live() != 0 {
		t.Fatalf("live=%d after run", e.Live())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv()
	var trace []string
	step := func(name string, d Time) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(d)
			trace = append(trace, fmt.Sprintf("%s@%v", name, p.Now()))
			p.Sleep(d)
			trace = append(trace, fmt.Sprintf("%s@%v", name, p.Now()))
		})
	}
	step("a", 10*Microsecond)
	step("b", 15*Microsecond)
	e.Run(-1)
	want := "[a@10µs b@15µs a@20µs b@30µs]"
	if fmt.Sprint(trace) != want {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestSignal(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var got []any
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			got = append(got, s.Wait(p))
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		s.Fire("done")
	})
	e.Run(-1)
	if len(got) != 3 {
		t.Fatalf("waiters woken = %d", len(got))
	}
	for _, v := range got {
		if v != "done" {
			t.Fatalf("value = %v", v)
		}
	}
	// Late waiter sees the fired value without blocking.
	e.Spawn("late", func(p *Proc) {
		if s.Wait(p) != "done" {
			t.Error("late waiter wrong value")
		}
	})
	e.Run(-1)
}

func TestSignalDoubleFirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double fire")
		}
	}()
	e := NewEnv()
	s := NewSignal(e)
	s.Fire(nil)
	s.Fire(nil)
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, "q")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Microsecond)
			q.Put(i)
		}
	})
	e.Run(-1)
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueManyWaiters(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, "q")
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			v := q.Get(p)
			order = append(order, i*100+v)
		})
	}
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(Microsecond)
		for i := 0; i < 4; i++ {
			q.Put(i)
		}
	})
	e.Run(-1)
	if len(order) != 4 {
		t.Fatalf("served %d of 4: %v", len(order), order)
	}
	// Waiters are served in arrival order: consumer i gets item i.
	for i, v := range order {
		if v != i*100+i {
			t.Fatalf("service order broken: %v", order)
		}
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEnv()
	q := NewQueue[string](e, "q")
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put("x")
	if v, ok := q.TryGet(); !ok || v != "x" {
		t.Fatalf("TryGet = %q,%v", v, ok)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "r", 1)
	var maxConcurrent, cur int
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p)
			cur++
			if cur > maxConcurrent {
				maxConcurrent = cur
			}
			p.Sleep(10 * Microsecond)
			cur--
			r.Release()
		})
	}
	end := e.Run(-1)
	if maxConcurrent != 1 {
		t.Fatalf("max concurrent = %d", maxConcurrent)
	}
	if end != 50*Microsecond {
		t.Fatalf("serialized end = %v", end)
	}
}

func TestResourceCapacity(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "r", 3)
	var peak, cur int
	for i := 0; i < 9; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p)
			cur++
			if cur > peak {
				peak = cur
			}
			p.Sleep(10 * Microsecond)
			cur--
			r.Release()
		})
	}
	end := e.Run(-1)
	if peak != 3 {
		t.Fatalf("peak = %d, want 3", peak)
	}
	if end != 30*Microsecond {
		t.Fatalf("end = %v, want 30µs", end)
	}
}

func TestResourceFIFOHandoff(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "r", 1)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			p.Sleep(Time(i) * Microsecond) // arrive in index order
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(20 * Microsecond)
			r.Release()
		})
	}
	e.Run(-1)
	for i, v := range order {
		if v != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestResourceBusyTime(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "r", 2)
	for i := 0; i < 2; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(30 * Microsecond)
			r.Release()
		})
	}
	e.Run(-1)
	if got := r.BusyTime(); got != 60*Microsecond {
		t.Fatalf("busy = %v, want 60µs", got)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e := NewEnv()
	NewResource(e, "r", 1).Release()
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEnv()
	panicked := false
	e.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(-1)
	})
	e.Run(-1)
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

// transfer drives a bandwidth server's staged triple from a goroutine
// proc.
func transfer(p *Proc, b *BandwidthServer, n int) {
	d := b.HoldTime(n)
	for !b.AcquireH(p.Ctx()) {
		p.Park()
	}
	p.Sleep(d)
	b.CompleteH(n)
}

func TestBandwidthServer(t *testing.T) {
	e := NewEnv()
	// 8 Gbit/s: 1000 bytes take 1µs.
	b := NewBandwidthServer(e, "link", 8e9, 0)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Spawn("tx", func(p *Proc) {
			transfer(p, b, 1000)
			done = append(done, p.Now())
		})
	}
	e.Run(-1)
	want := []Time{1 * Microsecond, 2 * Microsecond, 3 * Microsecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("transfer %d done at %v, want %v", i, done[i], want[i])
		}
	}
	if b.Bytes() != 3000 || b.Transfers() != 3 {
		t.Fatalf("counters: %d bytes, %d xfers", b.Bytes(), b.Transfers())
	}
}

func TestBandwidthServerOverhead(t *testing.T) {
	e := NewEnv()
	b := NewBandwidthServer(e, "link", 8e9, 500*Nanosecond)
	var end Time
	e.Spawn("tx", func(p *Proc) {
		transfer(p, b, 1000)
		end = p.Now()
	})
	e.Run(-1)
	if end != 1500*Nanosecond {
		t.Fatalf("end = %v, want 1.5µs", end)
	}
}

func TestBpsToTime(t *testing.T) {
	if got := BpsToTime(1250, 10e9); got != 1*Microsecond {
		t.Fatalf("1250B @10Gbps = %v, want 1µs", got)
	}
	if got := BpsToTime(0, 10e9); got != 0 {
		t.Fatalf("0 bytes = %v", got)
	}
}

// TestDeterminism: the same random program produces the same trace on
// every run — the core guarantee everything else depends on.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv()
		q := NewQueue[int](e, "q")
		r := NewResource(e, "r", 2)
		var trace []string
		for i := 0; i < 20; i++ {
			i := i
			d := Time(rng.Intn(50)) * Microsecond
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				r.Acquire(p)
				q.Put(i)
				p.Sleep(Time(rng.Intn(10)) * Microsecond)
				r.Release()
				trace = append(trace, fmt.Sprintf("%d@%v", i, p.Now()))
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for j := 0; j < 20; j++ {
				v := q.Get(p)
				trace = append(trace, fmt.Sprintf("got%d", v))
			}
		})
		e.Run(-1)
		return fmt.Sprint(trace)
	}
	if err := quick.Check(func(seed int64) bool {
		return run(seed) == run(seed)
	}, quickCfg(25)); err != nil {
		t.Fatal(err)
	}
}

// Property: with a capacity-c resource and n unit-time jobs, the
// makespan is ceil(n/c) service times — the FIFO resource neither
// loses capacity nor over-admits.
func TestResourceMakespanProperty(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%40) + 1
		c := int(cRaw%8) + 1
		e := NewEnv()
		r := NewResource(e, "r", c)
		for i := 0; i < n; i++ {
			e.Spawn("job", func(p *Proc) {
				r.Acquire(p)
				p.Sleep(10 * Microsecond)
				r.Release()
			})
		}
		end := e.Run(-1)
		waves := (n + c - 1) / c
		return end == Time(waves)*10*Microsecond
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: queue preserves order and loses nothing for any put/get
// interleaving produced by random sleeps.
func TestQueueOrderProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv()
		q := NewQueue[int](e, "q")
		var got []int
		e.Spawn("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Time(rng.Intn(5)) * Microsecond)
				q.Put(i)
			}
		})
		e.Spawn("consumer", func(p *Proc) {
			for i := 0; i < n; i++ {
				got = append(got, q.Get(p))
			}
		})
		e.Run(-1)
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(50)); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if s := (42 * Microsecond).String(); s != "42µs" {
		t.Fatalf("String = %q", s)
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion")
	}
	if (3 * Microsecond).Microseconds() != 3.0 {
		t.Fatal("Microseconds conversion")
	}
}

func TestYield(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run(-1)
	want := "[a1 b1 a2]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestCondBroadcastWakesAllWaiters(t *testing.T) {
	e := NewEnv()
	c := NewCond(e)
	ready := false
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			for !ready {
				c.Wait(p)
			}
			woken++
		})
	}
	e.Spawn("broadcaster", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		c.Broadcast() // spurious: predicate still false
		p.Sleep(10 * Microsecond)
		ready = true
		c.Broadcast()
	})
	e.Run(-1)
	if woken != 5 {
		t.Fatalf("woken = %d", woken)
	}
	if e.Live() != 0 {
		t.Fatalf("%d stuck", e.Live())
	}
}

// TestRunReentrancyPanics: calling Run while the simulation is already
// running (from a process or a callback) used to deadlock silently on
// the scheduler handoff; it must panic with the named error instead.
func TestRunReentrancyPanics(t *testing.T) {
	e := NewEnv()
	var fromProc, fromCallback any
	e.Spawn("nested", func(p *Proc) {
		defer func() { fromProc = recover() }()
		e.Run(-1)
	})
	e.Schedule(Microsecond, func() {
		defer func() { fromCallback = recover() }()
		e.Run(10 * Microsecond)
	})
	e.Run(-1)
	if fromProc != ErrReentrantRun {
		t.Fatalf("Run inside a process panicked with %v, want ErrReentrantRun", fromProc)
	}
	if fromCallback != ErrReentrantRun {
		t.Fatalf("Run inside a callback panicked with %v, want ErrReentrantRun", fromCallback)
	}
	// The guard clears: a fresh Run afterwards works.
	fired := false
	e.Schedule(Microsecond, func() { fired = true })
	e.Run(-1)
	if !fired {
		t.Fatal("Run after recovered re-entrancy panic did not dispatch")
	}
}

// TestFIFOLaneOrdering pins the (at, seq) tie-break across the two
// queues: an event scheduled *for* the current instant from within it
// (FIFO lane) must not overtake an earlier-scheduled heap event at the
// same instant.
func TestFIFOLaneOrdering(t *testing.T) {
	e := NewEnv()
	var got []string
	e.Schedule(5*Microsecond, func() {
		got = append(got, "a")
		// c lands in the FIFO lane; b (seq-earlier, same instant) is
		// still in the heap and must run first.
		e.Schedule(0, func() { got = append(got, "c") })
	})
	e.Schedule(5*Microsecond, func() { got = append(got, "b") })
	e.Run(-1)
	if fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("order = %v, want [a b c]", got)
	}
}

// TestFIFOLaneCompaction drives the steady-state ping-pong that never
// fully drains the lane and checks the lane's backing array stays
// bounded (the compaction path).
func TestFIFOLaneCompaction(t *testing.T) {
	e := NewEnv()
	const rounds = 100000
	for k := 0; k < 2; k++ {
		e.Spawn("pp", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Yield()
			}
		})
	}
	e.Run(-1)
	if c := cap(e.fifo); c > 4096 {
		t.Fatalf("fifo lane grew to cap %d; compaction not bounding it", c)
	}
}

func TestCondNoMemory(t *testing.T) {
	// A broadcast with no waiters is lost (condition variables have no
	// memory); a subsequent waiter needs its own wakeup.
	e := NewEnv()
	c := NewCond(e)
	c.Broadcast()
	reached := false
	e.Spawn("late", func(p *Proc) {
		done := false
		e.Schedule(5*Microsecond, func() { done = true; c.Broadcast() })
		for !done {
			c.Wait(p)
		}
		reached = true
	})
	e.Run(-1)
	if !reached {
		t.Fatal("late waiter never woke")
	}
}

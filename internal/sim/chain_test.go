package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestChainScheduleIdentical checks that a tail-position Chain produces
// the schedule enqueueing would: same relative order of continuations
// vs. already-queued and later-queued events, same timestamps.
func TestChainScheduleIdentical(t *testing.T) {
	env := NewEnv()
	var trace strings.Builder
	log := func(s string) func() {
		return func() { fmt.Fprintf(&trace, "|%s@%d", s, env.Now()) }
	}
	env.Schedule(0, func() {
		log("a")()
		// Tail position: nothing observable after Chain returns.
		env.Chain(func() {
			log("b")()
			env.Chain(log("c"))
		})
	})
	env.Schedule(0, log("d"))
	env.Schedule(5, func() {
		log("e")()
		env.Chain(log("f"))
	})
	env.Run(-1)
	fmt.Fprintf(&trace, "|end@%d", env.Now())
	// With d queued at the same instant, the first Chain must defer so b
	// runs after d, exactly where the enqueued continuation would run.
	want := "|a@0|d@0|b@0|c@0|e@5|f@5|end@5"
	if got := trace.String(); got != want {
		t.Fatalf("trace = %s, want %s", got, want)
	}
}

// TestChainInlineCounting checks that fused continuations are counted
// and that Chain defers when same-instant work is pending.
func TestChainInlineCounting(t *testing.T) {
	env := NewEnv()
	ran := 0
	env.Schedule(0, func() {
		env.Chain(func() { ran++ }) // nothing pending: inline
	})
	env.Run(-1)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	st := env.Stats()
	if st.Fused != 1 {
		t.Fatalf("Fused = %d, want 1", st.Fused)
	}
	if st.Events != 1 { // only the outer Schedule was dispatched
		t.Fatalf("Events = %d, want 1", st.Events)
	}
}

// TestYieldFastPath checks that a lone Yield with nothing pending skips
// the queue, and still lets pending same-instant work run first when
// there is any.
func TestYieldFastPath(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		p.Yield() // nothing else pending at t=10: fast path
		order = append(order, "p1")
		env.Schedule(0, func() { order = append(order, "cb") })
		p.Yield() // cb is pending: must run before we continue
		order = append(order, "p2")
	})
	env.Run(-1)
	if got := strings.Join(order, ","); got != "p1,cb,p2" {
		t.Fatalf("order = %s, want p1,cb,p2", got)
	}
	if env.Stats().Fused == 0 {
		t.Fatal("fused Yield not counted")
	}
}

// TestStatsEventsPerIO checks CountIO accounting.
func TestStatsEventsPerIO(t *testing.T) {
	env := NewEnv()
	for i := 0; i < 6; i++ {
		env.Schedule(Time(i), func() {})
	}
	env.CountIO(2)
	env.CountIO(1)
	env.Run(-1)
	st := env.Stats()
	if st.IOs != 3 {
		t.Fatalf("IOs = %d, want 3", st.IOs)
	}
	if got := st.EventsPerIO(); got != 2 {
		t.Fatalf("EventsPerIO = %v, want 2", got)
	}
	if (Stats{}).EventsPerIO() != 0 {
		t.Fatal("EventsPerIO with no IOs should be 0")
	}
}

// TestChainDepthGuard checks that unbounded same-instant recursion is
// caught instead of overflowing the stack.
func TestChainDepthGuard(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from unbounded Chain recursion")
		}
	}()
	var loop func()
	loop = func() { env.Chain(loop) } //dcslint:allow nochainrecursion deliberate runaway for the depth-guard test
	env.Schedule(0, loop)
	env.Run(-1)
}

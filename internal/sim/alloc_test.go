package sim

import "testing"

// TestResourceContendedZeroAlloc pins the contended Acquire/Release
// cycle allocation-free on both proc flavors. Three procs share a
// capacity-1 resource, so nearly every acquire enrols as a waiter and
// every release hands the unit straight to the head waiter. A per-wait
// waiter record on the heap, or a waiter list that bleeds capacity on
// each grant, shows up here as allocations.
func TestResourceContendedZeroAlloc(t *testing.T) {
	t.Run("goroutine", func(t *testing.T) {
		e := NewEnv()
		r := NewResource(e, "r", 1)
		for i := 0; i < 3; i++ {
			e.Spawn("user", func(p *Proc) {
				for {
					r.Acquire(p)
					p.Sleep(Microsecond)
					r.Release()
				}
			})
		}
		checkContendedZeroAlloc(t, e)
	})
	t.Run("handler", func(t *testing.T) {
		e := NewEnv()
		r := NewResource(e, "r", 1)
		for i := 0; i < 3; i++ {
			held := false
			e.SpawnHandler("user", func(h *HandlerCtx) {
				if held {
					r.Release()
					held = false
				}
				if !r.AcquireH(h) {
					return
				}
				held = true
				h.Rearm(Microsecond)
			})
		}
		checkContendedZeroAlloc(t, e)
	})
}

// checkContendedZeroAlloc runs e past its warm-up (waiter lists and
// event lanes reach their steady capacity), then requires each further
// 100 µs of simulated time — 100 contended grants — to allocate
// nothing.
func checkContendedZeroAlloc(t *testing.T, e *Env) {
	t.Helper()
	e.Run(100 * Microsecond)
	allocs := testing.AllocsPerRun(50, func() { e.Run(e.Now() + 100*Microsecond) })
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 100 contended grants, want 0", allocs)
	}
}

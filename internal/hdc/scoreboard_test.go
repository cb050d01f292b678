package hdc

import (
	"bytes"
	"testing"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// allocIssue drives the staged AllocIssue from a goroutine proc,
// parking while it reports not done.
func allocIssue(sb *Scoreboard, p *sim.Proc) {
	var is Issue
	for !sb.AllocIssue(p.Ctx(), &is) {
		p.Park()
	}
}

func TestScoreboardLifecycle(t *testing.T) {
	env := sim.NewEnv()
	sb := NewScoreboard(env, 8, 100*sim.Nanosecond)
	var issuedAt sim.Time
	env.Spawn("owner", func(p *sim.Proc) {
		allocIssue(sb, p)
		issuedAt = p.Now()
		if sb.Live() != 1 {
			t.Errorf("after AllocIssue: live %d", sb.Live())
		}
		sb.DeferDone()
	})
	end := env.Run(-1)
	// wait→ready→issue is three op costs in one sleep; the retire stage
	// charges the fourth.
	if issuedAt != 300*sim.Nanosecond || end != 400*sim.Nanosecond {
		t.Fatalf("issued at %v, retired by %v; want 300ns, 400ns", issuedAt, end)
	}
	if issued, done := sb.Stats(); issued != 1 || done != 1 {
		t.Fatalf("stats: %d %d", issued, done)
	}
	if sb.Live() != 0 {
		t.Fatalf("live = %d", sb.Live())
	}
}

// TestEngineSendWaitsForRead pins §III-B at the engine: "the scoreboard
// does not issue the second NIC command until the first NVMe command is
// completed". The stage pipeline enforces it, so at no instant of an
// SSD→NIC command has the NIC sent more payload than the SSD has read.
func TestEngineSendWaitsForRead(t *testing.T) {
	tb := newTestbed(t)
	content := pattern(256 << 10) // four chunks, all reads in one window
	f := tb.stageFile(t, "obj", content)
	var err error
	tb.env.Spawn("app", func(p *sim.Proc) {
		_, err = tb.drv.SendFile(p, trace.NewBreakdown(), 0, f, 0, len(content), connAB, FnNone, 0)
		tb.peer.waitFor(p, len(content))
	})
	var sentWhileReading bool
	for now := sim.Time(0); tb.env.Pending(); now += 250 * sim.Nanosecond {
		tb.env.Run(now)
		_, read, _ := tb.ssd.Stats()
		_, _, sent, _, _, _ := tb.nicA.Stats()
		if sent > read {
			t.Fatalf("at %v the NIC sent %d payload bytes, the SSD had read %d", now, sent, read)
		}
		sentWhileReading = sentWhileReading || (sent > 0 && read < int64(len(content)))
	}
	if err != nil || !bytes.Equal(tb.peer.got, content) {
		t.Fatalf("err=%v, peer got %d of %d bytes", err, len(tb.peer.got), len(content))
	}
	if !sentWhileReading {
		t.Fatal("no send overlapped a later read: the check saw no pipelining")
	}
}

func TestScoreboardCapacityBackpressure(t *testing.T) {
	env := sim.NewEnv()
	sb := NewScoreboard(env, 2, 0)
	var thirdAllocAt sim.Time
	env.Spawn("owner", func(p *sim.Proc) {
		allocIssue(sb, p)
		allocIssue(sb, p)
		env.Spawn("finisher", func(fp *sim.Proc) {
			fp.Sleep(15 * sim.Microsecond)
			sb.DeferDone()
		})
		allocIssue(sb, p) // waits until a slot frees
		thirdAllocAt = p.Now()
		sb.DeferDone()
		sb.DeferDone()
	})
	env.Run(-1)
	if thirdAllocAt != 15*sim.Microsecond {
		t.Fatalf("third alloc at %v, want 15µs", thirdAllocAt)
	}
	if sb.MaxLive() != 2 {
		t.Fatalf("max live = %d", sb.MaxLive())
	}
	if sb.Live() != 0 {
		t.Fatalf("live = %d", sb.Live())
	}
}

// TestScoreboardBadTransitionsPanic checks that retiring an entry the
// scoreboard does not hold live is a model bug: DeferDone panics with
// nothing allocated, when the entry's retirement is already pending,
// and after the entry retired.
func TestScoreboardBadTransitionsPanic(t *testing.T) {
	env := sim.NewEnv()
	sb := NewScoreboard(env, 4, 0)
	paniced := 0
	deferDone := func() {
		defer func() {
			if recover() != nil {
				paniced++
			}
		}()
		sb.DeferDone()
	}
	env.Spawn("owner", func(p *sim.Proc) {
		deferDone() // nothing allocated
		allocIssue(sb, p)
		sb.DeferDone()
		deferDone()              // retirement already pending
		p.Sleep(sim.Microsecond) // the retire stage completes it
		deferDone()              // already retired
	})
	env.Run(-1)
	if paniced != 3 {
		t.Fatalf("paniced = %d, want 3", paniced)
	}
	if issued, done := sb.Stats(); issued != 1 || done != 1 || sb.Live() != 0 {
		t.Fatalf("issued %d, done %d, live %d; want 1, 1, 0", issued, done, sb.Live())
	}
}

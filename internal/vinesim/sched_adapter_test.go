package vinesim

import (
	"strings"
	"testing"
	"time"

	"hepvine/internal/obs"
	"hepvine/internal/sched"
	"hepvine/internal/units"
)

// TestPolicyNamesRunAndDiverge runs the tiny workload under every stock
// policy: each must complete, report queue waits, and emit one
// EvSchedDecision per dispatch carrying the policy name.
func TestPolicyNamesRunAndDiverge(t *testing.T) {
	for _, name := range sched.Names() {
		rec := obs.NewRecorder()
		cfg := quietConfig(4, 3)
		cfg.Policy = name
		cfg.Recorder = rec
		res := Run(cfg, tinyWorkload(24, time.Second, units.MB))
		if !res.Completed {
			t.Fatalf("policy %s failed: %s", name, res.Failure)
		}
		if res.QueueWaitCount == 0 {
			t.Fatalf("policy %s recorded no queue waits", name)
		}
		if res.MeanQueueWait() < 0 {
			t.Fatalf("policy %s negative mean wait", name)
		}
		decisions := 0
		for _, ev := range rec.Events() {
			if ev.Type != obs.EvSchedDecision {
				continue
			}
			decisions++
			if !strings.Contains(ev.Detail, "policy="+name) {
				t.Fatalf("policy %s decision detail %q", name, ev.Detail)
			}
		}
		if decisions != res.QueueWaitCount {
			t.Fatalf("policy %s: %d decisions vs %d waits", name, decisions, res.QueueWaitCount)
		}
	}
}

// TestDefaultPolicyIsLocality checks "" and "locality" produce identical
// runs, so existing configs keep their exact historical behaviour.
func TestDefaultPolicyIsLocality(t *testing.T) {
	base := quietConfig(4, 3)
	named := base
	named.Policy = "locality"
	r1 := Run(base, tinyWorkload(24, time.Second, units.MB))
	r2 := Run(named, tinyWorkload(24, time.Second, units.MB))
	if r1.Runtime != r2.Runtime || r1.PeerCount != r2.PeerCount {
		t.Fatalf("default differs from locality: %v/%d vs %v/%d",
			r1.Runtime, r1.PeerCount, r2.Runtime, r2.PeerCount)
	}
}

// TestUnknownPolicyFailsFast makes a config typo a loud failure, not a
// silent fallback to some other placement.
func TestUnknownPolicyFailsFast(t *testing.T) {
	cfg := quietConfig(4, 2)
	cfg.Policy = "bogus"
	res := Run(cfg, tinyWorkload(4, time.Second, units.MB))
	if res.Completed || !strings.Contains(res.Failure, "bogus") {
		t.Fatalf("expected unknown-policy failure, got completed=%v failure=%q",
			res.Completed, res.Failure)
	}
}

package resilience

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/des"
	"exaresil/internal/machine"
	"exaresil/internal/obs"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// traceDigestSeeds is the number of consecutive seeds each pinned case
// runs on one executor, so the digests also cover warm-executor reuse.
const traceDigestSeeds = 12

// hashTraceEvent folds every field of one trace event into h.
func hashTraceEvent(h hash.Hash, ev TraceEvent) {
	var buf [41]byte
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(float64(ev.Time)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(ev.Kind))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(float64(ev.Progress)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(ev.Level))
	binary.LittleEndian.PutUint64(buf[32:], uint64(ev.Severity))
	if ev.Rollback {
		buf[40] = 1
	}
	h.Write(buf[:])
}

// traceDigest runs x at seeds 1..traceDigestSeeds with an observer and
// hashes the event streams together with each run's Result and, last, the
// des event counts of all the runs. horizonScale sets the horizon as a
// multiple of the application's baseline. It also reports how many runs
// the horizon cut short and how many failures struck the runs, so the test
// can insist each case exercises what it pins.
func traceDigest(t *testing.T, x Executor, horizonScale float64) (digest string, truncated, failures int) {
	t.Helper()
	h := sha256.New()
	if !Observe(x, func(ev TraceEvent) { hashTraceEvent(h, ev) }) {
		t.Fatalf("%v: executor does not accept an observer", x.Technique())
	}
	reg := obs.NewRegistry()
	Instrument(x, NewMetrics(reg))
	horizon := units.Duration(horizonScale * float64(x.App().Baseline()))
	for seed := uint64(1); seed <= traceDigestSeeds; seed++ {
		res := x.Run(0, horizon, rng.New(seed))
		fmt.Fprintf(h, "|%+v|", res)
		if !res.Completed {
			truncated++
		}
		failures += res.Failures
	}
	dm := des.NewMetrics(reg)
	fmt.Fprintf(h, "|scheduled=%d dispatched=%d canceled=%d|", dm.Scheduled.Value(), dm.Dispatched.Value(), dm.Canceled.Value())
	return hex.EncodeToString(h.Sum(nil)), truncated, failures
}

// TestTraceDigestsPinned pins the complete trace-event stream of every
// technique at a failure-heavy operating point, of a semi-blocking run and
// of a horizon-truncated run, with their des event counts. Any change to
// event order, tie-breaking, failure numbering, phase accounting or event
// counting moves a digest; an engine rewrite
// that claims identical behaviour must leave them all in place.
func TestTraceDigestsPinned(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := defaultModel(cfg)
	app := testApp(workload.C64, 12000)

	type pinned struct {
		name         string
		tech         core.Technique
		opts         Config
		horizonScale float64
		want         string
	}
	semi := DefaultConfig()
	semi.CheckpointComputeRate = 0.5
	cases := []pinned{
		{"cr", core.CheckpointRestart, DefaultConfig(), 200,
			"431014d2ea52dfc05fc9d3601a731af1eab4e0125ab437db75a0239ef9b0f568"},
		{"multilevel", core.MultilevelCheckpoint, DefaultConfig(), 200,
			"b43a82a8d2bf033b227a335aff34d719b0dbd1dffaabd7458f3567e0029ae186"},
		{"pr", core.ParallelRecovery, DefaultConfig(), 200,
			"96c84bf7cd3c74369d4690145cac26adec35ff9b55736950d39d33ee34dea1b6"},
		{"red1.5", core.PartialRedundancy, DefaultConfig(), 200,
			"18cb2109f6518034a10a8d85454040857f4064625c1ed816ae0d86270cbbf5f6"},
		{"red2.0", core.FullRedundancy, DefaultConfig(), 200,
			"a0ef895eef7ff349b098bdd9268acd3386f2f7b7ce7276798e8b73e5806ac2be"},
		{"restore", core.InMemoryReplicatedCheckpoint, DefaultConfig(), 200,
			"d48647112734326d428d099669940bfa3403da06b48b6fe5f97947d43edf6d76"},
		{"teampi", core.LightweightReplication, DefaultConfig(), 200,
			"6fdb19443ae1081052f41b6a6ccfd8f665465867a04062444b2ce5269b6399e7"},
		{"cr-semi-blocking", core.CheckpointRestart, semi, 200,
			"3a59080ca9308b4bb992b0f6dc34fdea82ae5f19703c0a04af3a95dc54077823"},
		{"multilevel-horizon", core.MultilevelCheckpoint, DefaultConfig(), 1.1,
			"b6cd9f165a3b95d289f20f6bdc69b8305febf64913843dd2e17720339eba82e6"},
	}
	for _, c := range cases {
		x, err := New(c.tech, app, cfg, model, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, truncated, failures := traceDigest(t, x, c.horizonScale)
		if got != c.want {
			t.Errorf("%s: trace digest %s, want %s", c.name, got, c.want)
		}
		if failures == 0 {
			t.Errorf("%s: no failure struck; the case pins no failure handling", c.name)
		}
		if short := c.horizonScale < 2; short != (truncated > 0) {
			t.Errorf("%s: %d of %d runs hit the horizon", c.name, truncated, traceDigestSeeds)
		}
	}
}

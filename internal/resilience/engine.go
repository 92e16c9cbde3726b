package resilience

import (
	"fmt"
	"math"

	"exaresil/internal/core"
	"exaresil/internal/des"
	"exaresil/internal/failures"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Executor simulates the execution of one application under one resilience
// technique. Executors are stateless between runs and safe to reuse
// sequentially; they are not safe for concurrent use (each Run consumes a
// caller-supplied random source).
type Executor interface {
	// Technique identifies the strategy the executor implements.
	Technique() core.Technique
	// App is the application descriptor the executor simulates.
	App() workload.App
	// PhysicalNodes is the number of machine nodes one run occupies
	// (more than App().Nodes for redundant executions).
	PhysicalNodes() int
	// Viable reports whether the technique can execute the application
	// at all; reason explains a false result (e.g. a non-positive
	// optimal checkpoint period, or a replica set larger than the
	// machine).
	Viable() (ok bool, reason string)
	// Run simulates one execution beginning at start, abandoning it at
	// horizon if unfinished. Randomness (failure times, locations,
	// severities) is drawn from src, so identical sources replay
	// identical runs.
	Run(start, horizon units.Duration, src *rng.Source) Result
	// Clone returns an independent executor for the same application and
	// technique, so parallel trial runners can execute concurrently.
	Clone() Executor
}

// strategy is the technique-specific half of the execution engine. The
// engine owns time, progress, and event bookkeeping; the strategy decides
// checkpoint schedules, restore points, and failure responses.
type strategy interface {
	technique() core.Technique
	// app is the application descriptor being executed.
	app() workload.App
	// physicalNodes is the node population failures strike.
	physicalNodes() int
	// effectiveWork is the technique-inflated total work (Eqs. 7, 8).
	effectiveWork() units.Duration
	// checkpointInterval is the work between checkpoint triggers;
	// +Inf disables checkpointing (used when the failure rate is zero).
	checkpointInterval() units.Duration
	// nextCheckpoint reports the level and cost of the upcoming
	// checkpoint and advances any schedule pattern state.
	nextCheckpoint() (level int, cost units.Duration)
	// onCheckpointDone commits a completed checkpoint of the given level
	// holding the given progress.
	onCheckpointDone(level int, progress units.Duration)
	// onFailure decides the response to a failure striking the
	// application while it holds progress.
	onFailure(f failures.Failure, progress units.Duration) response
	// recoverySpeed is the progress rate multiplier while recomputing
	// previously completed work (1 for everything but Parallel
	// Recovery).
	recoverySpeed() float64
	// reset clears per-run strategy state before a new run.
	reset()
	// clone returns an independent copy for concurrent use.
	clone() strategy
}

// response is a strategy's reaction to a failure.
type response struct {
	// rollback indicates the failure forces a restore; false means the
	// application absorbs the failure (a surviving replica).
	rollback bool
	// restoreTo is the progress of the checkpoint being restored.
	restoreTo units.Duration
	// restoreLevel is the checkpoint level restored from (for stats).
	restoreLevel int
	// restartCost is the time spent restoring before work resumes.
	restartCost units.Duration
}

// phase enumerates the engine's execution phases; they mirror the event
// taxonomy of Section III-A (computation, checkpoints, restarts, recovery —
// recovery being the computing phase below the high-water mark).
type phase int

const (
	phaseComputing phase = iota
	phaseCheckpointing
	phaseRestarting
)

// workEpsilon absorbs floating-point drift when comparing accumulated work
// against triggers, measured in minutes.
const workEpsilon = 1e-9

// timer is one deadline of the engine's event loop. seq is its arming
// number: every arm takes the next one, so equal times fire in arming
// order.
type timer struct {
	at    units.Duration
	seq   uint64
	armed bool
}

// failureFirst reports whether the failure timer fires before the phase
// timer: the earlier time wins, and on equal times the earlier-armed timer
// wins. An unarmed timer never fires first.
func failureFirst(failure, phaseEnd timer) bool {
	if !failure.armed || !phaseEnd.armed {
		return failure.armed
	}
	if failure.at != phaseEnd.at {
		return failure.at < phaseEnd.at
	}
	return failure.seq < phaseEnd.seq
}

// engine drives one run of a strategy. A run never has more than two
// pending events: the next failure and the end of the current phase. The
// engine keeps them as two timers and fires the earlier one (see
// failureFirst), the (time, arming order) rule of a general event queue
// without the queue.
type engine struct {
	strat   strategy
	proc    failures.Process
	start   units.Duration
	horizon units.Duration

	now      units.Duration
	seq      uint64 // arming number of the next armed timer
	failure  timer  // strikes nextFailure
	phaseEnd timer  // ends the current phase (segment, checkpoint or restart)

	phase         phase
	progress      units.Duration // work-minutes completed (post-restore view)
	highWater     units.Duration // maximum progress ever reached
	totalWork     units.Duration
	interval      units.Duration // work between checkpoint triggers
	workSinceSync units.Duration // work since last checkpoint or restore

	segStart   units.Duration // wall time the current computing segment began
	segRate    float64        // progress rate of the current segment
	inRework   bool           // current segment recomputes lost work
	phaseStart units.Duration // wall time the current blocking phase began
	ckptLevel  int            // level of the in-flight checkpoint
	ckptCost   units.Duration // cost of the in-flight checkpoint
	ckptSaved  units.Duration // progress captured at checkpoint start

	ckptRate float64 // compute rate sustained during checkpoints (0 = blocking)

	nextFailure  failures.Failure
	restoreLevel int            // level of the in-flight restore
	restartCost  units.Duration // cost of the in-flight restore

	// Event tallies of the current run, flushed into the des counters
	// once per run.
	scheduled, dispatched, canceled uint64

	observer Observer
	metrics  *techMetrics
	res      Result
	done     bool
}

// emit forwards a trace event to the observer, if any.
func (e *engine) emit(kind TraceKind, mutate func(*TraceEvent)) {
	if e.observer == nil {
		return
	}
	ev := TraceEvent{Time: e.now, Kind: kind, Progress: e.progress}
	if mutate != nil {
		mutate(&ev)
	}
	e.observer(ev)
}

// arm sets t to fire at absolute time at. A deadline before now always
// indicates a logic error in a strategy, and letting time run backwards
// would corrupt every statistic downstream, so it panics.
func (e *engine) arm(t *timer, at units.Duration) {
	if at < e.now {
		panic(fmt.Sprintf("resilience: deadline %v before now %v", at, e.now))
	}
	*t = timer{at: at, seq: e.seq, armed: true}
	e.seq++
	e.scheduled++
}

// run executes one simulation run of strat against a failure model,
// reporting state transitions to obs when non-nil and the run's event
// counts to dm when non-nil. The engine's storage (the failure process)
// is reused across runs: every per-run field is re-initialized below, so a
// warm engine and a zero one replay identically.
func (e *engine) run(strat strategy, model *failures.Model, start, horizon units.Duration, src *rng.Source, ckptRate float64, obs Observer, dm *des.Metrics, tm *techMetrics) Result {
	if horizon <= start {
		panic(fmt.Sprintf("resilience: horizon %v not after start %v", horizon, start))
	}
	strat.reset()
	e.proc.Reinit(model, strat.physicalNodes(), src)
	e.strat = strat
	e.start = start
	e.horizon = horizon
	e.now = start
	e.seq = 0
	e.failure = timer{}
	e.phaseEnd = timer{}
	e.phase = phaseComputing
	e.progress = 0
	e.highWater = 0
	e.totalWork = strat.effectiveWork()
	e.interval = strat.checkpointInterval()
	e.workSinceSync = 0
	e.segStart = 0
	e.segRate = 0
	e.inRework = false
	e.phaseStart = 0
	e.ckptLevel = 0
	e.ckptCost = 0
	e.ckptSaved = 0
	e.ckptRate = ckptRate
	e.nextFailure = failures.Failure{}
	e.restoreLevel = 0
	e.restartCost = 0
	e.scheduled, e.dispatched, e.canceled = 0, 0, 0
	e.observer = obs
	e.metrics = tm
	e.res = Result{
		Technique:     strat.technique(),
		Start:         start,
		Baseline:      strat.app().Baseline(),
		EffectiveWork: e.totalWork,
	}
	e.done = false

	// The application starts at start, before any failure can strike; it
	// counts as one event. The first failure is armed before the first
	// segment, so it wins a tie with it.
	e.scheduled++
	e.dispatched++
	e.scheduleNextFailure()
	e.emit(TraceStart, nil)
	e.enterComputing()

	// Fire the earlier timer until the application completes or the next
	// event lies beyond the horizon.
	for !e.done {
		fail := failureFirst(e.failure, e.phaseEnd)
		t := &e.phaseEnd
		if fail {
			t = &e.failure
		}
		if !t.armed || t.at > horizon {
			break
		}
		e.now = t.at
		t.armed = false
		e.dispatched++
		switch {
		case fail:
			e.handleFailure(e.nextFailure)
		case e.phase == phaseComputing:
			e.segmentEnd()
		case e.phase == phaseCheckpointing:
			e.checkpointEnd()
		default:
			e.restartEnd()
		}
	}

	if dm != nil {
		dm.Scheduled.Add(e.scheduled)
		dm.Dispatched.Add(e.dispatched)
		dm.Canceled.Add(e.canceled)
	}
	if !e.done {
		e.res.Completed = false
		e.res.End = horizon
	}
	tm.observeRun(e.res)
	return e.res
}

// scheduleNextFailure arms the next failure, if it lands before the
// horizon. Failure process times are relative to the run's start.
func (e *engine) scheduleNextFailure() {
	f, ok := e.proc.Next()
	if !ok {
		return
	}
	at := e.start + f.Time
	if at > e.horizon {
		return
	}
	e.nextFailure = f
	e.arm(&e.failure, at)
}

// enterComputing begins (or resumes) a computing segment, scheduling its
// end at the earliest of: work complete, checkpoint trigger, or the
// high-water mark where the recovery rate drops back to normal speed.
func (e *engine) enterComputing() {
	e.phase = phaseComputing
	e.segStart = e.now

	rate := 1.0
	e.inRework = e.progress < e.highWater-workEpsilon
	if e.inRework {
		rate = e.strat.recoverySpeed()
	}
	e.segRate = rate

	dist := e.totalWork - e.progress // work to completion
	if e.interval < units.Duration(math.Inf(1)) {
		if toCkpt := e.interval - e.workSinceSync; toCkpt < dist {
			dist = toCkpt
		}
	}
	if e.inRework {
		if toHW := e.highWater - e.progress; toHW < dist {
			dist = toHW
		}
	}
	dist = max(dist, 0)
	e.arm(&e.phaseEnd, e.now+units.Duration(float64(dist)/rate))
}

// materialize folds the progress of the current segment into the engine
// state up to the present moment. Computing segments always accrue; with a
// positive semi-blocking rate, checkpointing segments accrue too (at that
// rate), overlapping work with the checkpoint write.
func (e *engine) materialize() {
	if e.phase == phaseRestarting {
		return
	}
	if e.phase == phaseCheckpointing && e.segRate <= 0 {
		return
	}
	now := e.now
	delta := units.Duration(float64(now-e.segStart) * e.segRate)
	e.progress += delta
	e.workSinceSync += delta
	if e.phase == phaseCheckpointing {
		e.res.OverlappedWork += delta
	} else if e.inRework {
		e.res.ReworkTime += now - e.segStart
	}
	if e.progress > e.highWater {
		e.highWater = e.progress
	}
	e.segStart = now
}

// segmentEnd fires when a computing segment reaches its scheduled boundary.
func (e *engine) segmentEnd() {
	e.materialize()
	switch {
	case e.progress >= e.totalWork-workEpsilon:
		e.done = true
		e.res.Completed = true
		e.res.End = e.now
		e.emit(TraceComplete, nil)
	case e.interval < units.Duration(math.Inf(1)) && e.workSinceSync >= e.interval-workEpsilon:
		e.startCheckpoint()
	default:
		// Crossed the high-water mark: resume at normal speed.
		e.enterComputing()
	}
}

// startCheckpoint begins a blocking checkpoint.
func (e *engine) startCheckpoint() {
	level, cost := e.strat.nextCheckpoint()
	e.phase = phaseCheckpointing
	e.phaseStart = e.now
	e.ckptLevel = level
	e.ckptCost = cost
	e.ckptSaved = e.progress
	e.segStart = e.now
	e.segRate = e.ckptRate
	e.inRework = false
	e.emit(TraceCheckpointStart, func(ev *TraceEvent) { ev.Level = level })
	e.arm(&e.phaseEnd, e.now+cost)
}

// checkpointEnd commits a completed checkpoint. The committed state is the
// one captured when the checkpoint began: work overlapped with the write
// (semi-blocking mode) is real progress but is not part of this snapshot.
func (e *engine) checkpointEnd() {
	e.materialize()
	e.strat.onCheckpointDone(e.ckptLevel, e.ckptSaved)
	e.res.Checkpoints[clampLevel(e.ckptLevel)]++
	e.res.CheckpointTime += e.ckptCost
	// Work between triggers counts from the snapshot, so overlapped work
	// stays on the clock toward the next checkpoint.
	e.workSinceSync = e.progress - e.ckptSaved
	e.emit(TraceCheckpointEnd, func(ev *TraceEvent) { ev.Level = e.ckptLevel })
	e.enterComputing()
}

// handleFailure reacts to a failure event. The next failure is armed on
// the way out, after any restart timer the failure arms.
func (e *engine) handleFailure(f failures.Failure) {
	defer e.scheduleNextFailure()
	e.materialize()
	e.res.Failures++
	e.metrics.observeFailure(int(f.Severity))

	resp := e.strat.onFailure(f, e.progress)
	e.emit(TraceFailure, func(ev *TraceEvent) {
		ev.Severity = f.Severity
		ev.Rollback = resp.rollback
	})
	if !resp.rollback {
		// Absorbed (a surviving replica). The phase timer stays armed:
		// nothing about the execution rate changed.
		return
	}

	if e.phaseEnd.armed {
		e.phaseEnd.armed = false
		e.canceled++
	}
	e.res.Rollbacks++
	// Wall time sunk into an interrupted blocking phase still belongs to
	// that phase in the makespan decomposition.
	switch e.phase {
	case phaseCheckpointing:
		e.res.CheckpointTime += e.now - e.phaseStart
	case phaseRestarting:
		e.res.RestartTime += e.now - e.phaseStart
		if e.restoreLevel == 0 {
			e.res.RelaunchTime += e.now - e.phaseStart
		}
	}
	if lost := e.progress - resp.restoreTo; lost > 0 {
		e.res.LostWork += lost
	}
	e.progress = resp.restoreTo
	e.workSinceSync = 0
	e.phase = phaseRestarting
	e.phaseStart = e.now
	// At most one restore is in flight; a later failure disarms its timer
	// and overwrites the fields before re-arming.
	e.restoreLevel = resp.restoreLevel
	e.restartCost = resp.restartCost
	e.arm(&e.phaseEnd, e.now+resp.restartCost)
}

// restartEnd fires when a restore completes and computation resumes.
func (e *engine) restartEnd() {
	e.res.RestartTime += e.restartCost
	if e.restoreLevel == 0 {
		e.res.RelaunchTime += e.restartCost
	}
	e.emit(TraceRestartEnd, func(ev *TraceEvent) { ev.Level = e.restoreLevel })
	e.enterComputing()
}

// clampLevel maps a checkpoint level into the Result's histogram index.
func clampLevel(level int) int {
	if level < 1 {
		return 1
	}
	if level > 3 {
		return 3
	}
	return level
}

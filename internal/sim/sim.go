package sim

import (
	"fmt"
	"math"
	"sort"

	"treesched/internal/faults"
	"treesched/internal/tree"
)

// timeEps absorbs floating-point slack in event times and remaining
// work. Processing times in experiments are O(1)..O(10^3), so 1e-9 is
// far below any meaningful quantity.
const timeEps = 1e-9

// JobState is the engine's record of one schedulable task (a job, or
// one packet of a job in packetized mode) travelling down its path.
type JobState struct {
	// ID of the originating job; packets share their parent's ID.
	ID int
	// seq is the unique engine-wide task sequence number used as the
	// final deterministic tie-breaker.
	seq int64

	Release float64
	// RouterSize is the processing requirement on every router
	// (p_j; the packet fraction of it in packetized mode).
	RouterSize float64
	// LeafWork is the processing requirement on the assigned leaf.
	LeafWork float64
	// FracWeight is this task's contribution to a fully-remaining
	// job's fractional flow (1 for whole jobs, 1/k for k packets).
	FracWeight float64
	// Weight is the job's importance for weighted flow time (>= 1).
	Weight float64

	Leaf tree.NodeID
	Path []tree.NodeID
	// Hop indexes Path at the node the task currently occupies;
	// len(Path) once complete.
	Hop int

	// PrioRouter/PrioLeaf are the sizes used for SJF priority: the
	// originating job's full p_j and p_{j,v}. For whole jobs they
	// equal RouterSize/LeafWork; packets inherit the parent's values
	// so SJF still orders by original job size, as the paper requires.
	PrioRouter float64
	PrioLeaf   float64

	// OrigOnCur is the task's full processing requirement on its
	// current node; Remaining is what is left of it. PrioOnCur is the
	// priority size on the current node.
	OrigOnCur float64
	PrioOnCur float64
	Remaining float64
	// NodeArrive is when the task became available on the current node.
	NodeArrive float64

	Completed  bool
	Completion float64
	// HopArrive/HopComplete record per-hop timings when the engine is
	// instrumented; otherwise nil.
	HopArrive   []float64
	HopComplete []float64

	// leafSizes references the arrival's per-leaf sizes (nil for
	// identical endpoints); recovery re-dispatch needs it to recompute
	// LeafWork on the new leaf.
	leafSizes []float64

	// key1/key2 cache the node policy's priority key.
	key1, key2 float64
	// qidx is the task's position in its node's queue (-1 if absent).
	qidx int
	// leafIdx is the task's position in the leaf's assigned list.
	leafIdx int
	// pendIdx[i] is the position in pendingOn for Path[i] (instrumented).
	pendIdx []int
}

// CurrentNode returns the node the task occupies, or tree.None when done.
func (js *JobState) CurrentNode() tree.NodeID {
	if js.Hop >= len(js.Path) {
		return tree.None
	}
	return js.Path[js.Hop]
}

type nodeState struct {
	id tree.NodeID
	// speed is the node's current effective speed; baseSpeed is the
	// tree's speed, which fault boundaries scale by their factor.
	speed     float64
	baseSpeed float64
	leaf      bool

	avail taskQueue
	// fsnap is the node's F-statistic snapshot (see fstat.go),
	// maintained at every queue membership change once a query has
	// activated it.
	fsnap    fstat
	running  *JobState
	lastSync float64
	// lastSlice indexes Sim.slices at the node's latest slice (-1 when
	// it has none), so a continuing slice merges in place.
	lastSlice int

	busyTime float64
	workDone float64
	// fracContrib is this leaf's current drain rate of the engine's
	// fractional-flow sum (0 for routers and idle leaves).
	fracContrib float64
}

// Options configures the engine.
type Options struct {
	// Policy is the node scheduling policy (default SJF).
	Policy Policy
	// Instrument enables per-hop timing records and per-router
	// pending sets (needed by the Lemma validators and the potential
	// function; costs memory and a little time). An instrumented
	// engine, like one recording slices, keeps every task's JobState
	// until Reset so Tasks() can list them; any other engine recycles
	// a task's state the moment it completes and keeps only its
	// JobMetrics record.
	Instrument bool
	// SelfCheck enables internal invariant assertions (tests).
	SelfCheck bool
	// Observer, when set, is called after every state change (task
	// injection and every node completion), with the engine clock at
	// the change's instant. Used by the Lemma validators to check
	// invariants at event granularity.
	Observer func(s *Sim)
	// RecordSlices keeps the exact processing slices (node, job,
	// interval) including preemption boundaries; costs memory
	// proportional to the number of preemptions. Not supported in
	// processor-sharing mode (work is fluid there).
	RecordSlices bool
	// Faults, when set, applies the compiled fault schedule: node
	// speeds become piecewise-constant (base speed × factor), and
	// permanent leaf losses trigger the Recovery policy. The schedule
	// must be compiled against the engine's tree.
	Faults *faults.Schedule
	// Recovery selects what happens to tasks assigned to a permanently
	// lost leaf (RecoverHold when unset).
	Recovery RecoveryPolicy
	// RetainJobs bounds how many per-job JobMetrics records a run
	// keeps in memory: 0 keeps one per injected task, N > 0 keeps
	// only the last N completions in a ring, so with task state
	// recycled at completion (see Instrument) memory is bounded by the
	// peak number of concurrently active tasks instead of the trace
	// length. Under bounded retention Stats sums accumulate in
	// completion order (last-ulp float differences vs a full-retention
	// run). Not supported by RunPacketized.
	RetainJobs int
	// Sink, when non-nil, receives every completed job's metrics in
	// completion order (e.g. an NDJSONSink writing per-job records to
	// disk), so the full record can live on disk instead of in RAM.
	// A sink serves one engine at a time. A bare *NDJSONSink is
	// encoded on a goroutine of its own, fed in batches, and its
	// writer belongs to the engine until Drain, Reset or the driver
	// returns: it must not be read or written mid-run. Any other sink
	// gets Emit on the engine goroutine at each completion. Not
	// supported by RunPacketized.
	Sink JobSink
}

// RecoveryPolicy selects the permanent-leaf-loss behavior.
type RecoveryPolicy int

const (
	// RecoverHold leaves tasks assigned to a lost leaf in place: they
	// stall (their waiting keeps accruing in ActiveIntegral) and Drain
	// reports them in a StuckError.
	RecoverHold RecoveryPolicy = iota
	// RecoverRedispatch re-dispatches each incomplete task of a lost
	// leaf from the root toward the surviving leaf with the least
	// remaining assigned volume, recording a Migration per task. Work
	// already done on the abandoned journey is lost.
	RecoverRedispatch
)

// Migration records one recovery re-dispatch of a task off a
// permanently lost leaf. OldPath and OldLeafWork describe the
// abandoned journey (the auditor checks partial work against them).
type Migration struct {
	Job         int
	Seq         int64
	At          float64
	From, To    tree.NodeID
	OldPath     []tree.NodeID
	OldLeafWork float64
}

// Slice is one maximal interval during which a node processed a task.
type Slice struct {
	Node     tree.NodeID
	Job      int
	Seq      int64
	From, To float64
}

// Sim is the simulation engine. Create with New, feed arrivals with
// Inject (after AdvanceTo their release time), and finish with Drain.
// A drained engine can be returned to an empty time-zero state with
// Reset, which retains all allocated capacity so that repeated
// replicate runs approach zero allocations in steady state.
//
// One event loop drives the engine: a single clock, one event heap
// holding each busy node's next finish, one cursor into the fault
// boundaries, one set of flow-time integrals, one slice log and one
// task arena. Events run in global time order, equal times children
// first (descending node), so completions happen — and reach a Sink —
// in completion order.
type Sim struct {
	tree *tree.Tree
	opts Options

	// now is the engine clock: the instant of the event being
	// processed, the last AdvanceTo target, or after Drain the last
	// event's or boundary's time.
	now   float64
	nodes []nodeState

	// events holds the next finish of every node running a task at
	// positive speed; faultIdx is the applied prefix of the fault
	// schedule's boundaries.
	events   eventHeap
	faultIdx int

	activeTasks int
	// Running totals (see Stats): fracSum is Σ weight · remaining leaf
	// fraction over active tasks and fracRate its rate of decrease from
	// the leaves currently processing; the integrals accumulate between
	// consecutive clock stops (every arrival, event and boundary).
	fracSum        float64
	fracRate       float64
	fracIntegral   float64
	activeIntegral float64 // ∫ activeTasks dt (integral-flow cross-check)
	eventCount     int64

	// slices is the exact processing record when RecordSlices.
	slices []Slice

	// free holds recycled JobStates (returned at completion, or by
	// Reset); block is the tail of the current arena chunk fresh tasks
	// are carved from.
	free  []*JobState
	block []JobState

	// tasks lists every injected task in injection order, on engines
	// that keep task state for introspection (keepsTasks); elsewhere
	// completed tasks are recycled and live ones are reached through
	// assigned. records[seq] is the completion record of the task
	// injected seq-th (a slot holds only its job ID until the task
	// completes); it stays empty under bounded retention. lent marks
	// records as handed to a Result's Jobs, so Reset must not write
	// to it again.
	tasks   []*JobState
	records []JobMetrics
	lent    bool
	nextSeq int64

	// query is the read-only view handed out by Query (one per engine
	// so the accessor does not allocate).
	query Query
	// scratchArrival is the Arrival every driver's per-arrival step
	// (arrive) hands the assigner: a stack Arrival passed through the
	// Assigner interface escapes, which would cost one heap allocation
	// per arrival on the zero-alloc warm path.
	scratchArrival Arrival
	// scratchIDs is reused by Query.AvailCountLarger for packet
	// de-duplication.
	scratchIDs []int

	// assigned[leafIndex] lists incomplete tasks assigned to the leaf
	// (the paper's Q_v(t) for leaves).
	assigned [][]*JobState
	// upstreamWork[leafIndex] = Σ LeafWork over the tasks assigned to
	// the leaf that have not yet arrived at it — the store-and-forward
	// backlog Query.AssignedUpstreamWork reports without scanning the
	// leaf queue. Maintained at dispatch, leaf arrival (availPush) and
	// migration.
	upstreamWork []float64
	// pendingOn[node] lists tasks routed through node and not yet
	// complete on it (the paper's Q_v(t)); only kept when Instrument.
	pendingOn [][]*JobState

	// ps marks processor-sharing mode (Options.Policy == PS{}).
	ps bool
	// staticKey marks a StaticKeyPolicy: the running task's key cannot
	// drift between events, so reschedules skip its key refresh and
	// heap fix-up.
	staticKey bool
	// migrations records recovery re-dispatches in time order.
	migrations []Migration

	// stream holds the streaming hooks (online accumulator, sink,
	// retention ring); nil unless Options.RetainJobs or Options.Sink
	// is set.
	stream *streamState
}

// New creates an engine for the given tree.
func New(t *tree.Tree, opts Options) *Sim {
	s := &Sim{tree: t}
	s.nodes = make([]nodeState, t.NumNodes())
	for i := range s.nodes {
		n := &s.nodes[i]
		n.id = tree.NodeID(i)
		n.baseSpeed = t.Speed(n.id)
		n.speed = n.baseSpeed
		n.leaf = t.IsLeaf(n.id)
		n.lastSlice = -1
	}
	s.events.reset(t.NumNodes())
	s.assigned = make([][]*JobState, len(t.Leaves()))
	s.upstreamWork = make([]float64, len(t.Leaves()))
	s.applyOptions(opts)
	return s
}

// applyOptions installs opts, building or clearing the per-node queues
// as needed. The queue implementation depends on the policy (scan for
// PS, heap otherwise), so a Reset that switches to or from PS rebuilds
// the queues; otherwise they are emptied in place.
func (s *Sim) applyOptions(opts Options) {
	if opts.Policy == nil {
		opts.Policy = SJF{}
	}
	if opts.Faults != nil && opts.Faults.NumNodes() != len(s.nodes) {
		panic(fmt.Sprintf("sim: fault schedule compiled for %d nodes, tree has %d",
			opts.Faults.NumNodes(), len(s.nodes)))
	}
	_, ps := opts.Policy.(PS)
	// Processor sharing recomputes the next completion by scanning,
	// so the heap's cached keys would be stale.
	prevPS := s.ps
	s.opts = opts
	s.ps = ps
	_, s.staticKey = opts.Policy.(StaticKeyPolicy)
	for i := range s.nodes {
		n := &s.nodes[i]
		// A previous run's fault boundaries may have left a scaled
		// speed behind; every run starts at base speed (the schedule's
		// own t=0 boundaries re-apply active faults).
		n.speed = n.baseSpeed
		switch {
		case n.avail == nil || ps != prevPS:
			if ps {
				n.avail = newScanQueue()
			} else {
				n.avail = newHeapQueue()
			}
		default:
			n.avail.clear()
		}
		n.fsnap.clear()
	}
	if opts.Instrument && s.pendingOn == nil {
		s.pendingOn = make([][]*JobState, len(s.nodes))
	}
	if opts.RetainJobs < 0 {
		panic(fmt.Sprintf("sim: Options.RetainJobs must be >= 0, got %d", opts.RetainJobs))
	}
	prev := s.stream
	s.stream = nil
	if opts.RetainJobs > 0 || opts.Sink != nil {
		s.stream = newStreamState(opts, s.tree.Leaves(), prev)
	}
}

// Reset returns the engine to an empty state at time zero while
// retaining every allocated buffer it still owns (event heap, node
// queues, task arena, record slice, instrumentation slices), so
// replaying traces on one engine approaches zero allocations per run.
// opts may differ arbitrarily from the previous run's options —
// changing Policy, Instrument, Faults, etc. is supported and the
// engine reconfigures itself.
//
// Reset first writes the completions a pipelined NDJSONSink still
// holds and stops its encoder goroutine. It recycles every JobState
// the previous run still held — the live tasks, and on an
// instrumented engine the completed ones too — and empties
// Records(): pointers previously obtained from Tasks() or
// Inject, directly or through Result.Sim, become invalid. A Result's
// Jobs and Stats stay valid. When the last run handed its record
// buffer to Result.Jobs (RunOn, RunStreamOn), Reset never writes to
// that buffer again: the next run starts on a new one of the same
// capacity.
func (s *Sim) Reset(opts Options) {
	s.stream.join()
	// Completed tasks are already on the freelists unless the engine
	// kept them for introspection; live ones sit in the assigned lists.
	for _, js := range s.tasks {
		if js.Completed {
			s.recycle(js)
		}
	}
	for i := range s.assigned {
		for _, js := range s.assigned[i] {
			s.recycle(js)
		}
		s.assigned[i] = s.assigned[i][:0]
	}
	s.tasks = s.tasks[:0]
	if s.lent {
		s.records, s.lent = make([]JobMetrics, 0, cap(s.records)), false
	} else {
		s.records = s.records[:0]
	}
	s.nextSeq = 0
	s.now = 0
	for i := range s.nodes {
		n := &s.nodes[i]
		n.running = nil
		n.lastSync = 0
		n.lastSlice = -1
		n.busyTime = 0
		n.workDone = 0
		n.fracContrib = 0
	}
	s.events.reset(len(s.nodes))
	s.faultIdx = 0
	s.activeTasks = 0
	s.fracSum, s.fracRate = 0, 0
	s.fracIntegral, s.activeIntegral = 0, 0
	s.eventCount = 0
	s.slices = s.slices[:0]
	for i := range s.upstreamWork {
		s.upstreamWork[i] = 0
	}
	for i := range s.pendingOn {
		s.pendingOn[i] = s.pendingOn[i][:0]
	}
	s.migrations = s.migrations[:0]
	s.applyOptions(opts)
}

// taskBlockSize is how many JobStates one arena chunk holds; one chunk
// allocation amortizes over this many injections.
const taskBlockSize = 512

// newTask returns a zeroed JobState from the freelist or the arena.
// Instrumentation buffers of recycled tasks are kept (emptied) when
// the engine is instrumented so inject can refill them in place; in
// uninstrumented mode they are dropped to nil, which downstream code
// (e.g. trace rendering) uses to detect the absence of hop timings.
func (s *Sim) newTask() *JobState {
	if n := len(s.free); n > 0 {
		js := s.free[n-1]
		s.free = s.free[:n-1]
		ha, hc, pi := js.HopArrive, js.HopComplete, js.pendIdx
		*js = JobState{}
		if s.opts.Instrument {
			js.HopArrive = ha[:0]
			js.HopComplete = hc[:0]
			js.pendIdx = pi[:0]
		}
		return js
	}
	if len(s.block) == 0 {
		s.block = make([]JobState, taskBlockSize)
	}
	js := &s.block[0]
	s.block = s.block[1:]
	return js
}

// recycle returns js to the freelist.
func (s *Sim) recycle(js *JobState) { s.free = append(s.free, js) }

// keepsTasks reports whether task state outlives completion: only the
// readers of Instrument's hop records and of the slice log (the Lemma
// validators, the auditor, the Gantt renderer) need it.
func (s *Sim) keepsTasks() bool { return s.opts.Instrument || s.opts.RecordSlices }

// claimSeq numbers js as the next injected task and, unless retention
// is bounded, opens its record slot.
func (s *Sim) claimSeq(js *JobState) {
	js.seq = s.nextSeq
	s.nextSeq++
	if s.opts.RetainJobs == 0 {
		s.records = append(s.records, JobMetrics{ID: js.ID})
	}
}

// grow resizes sl to n zeroed entries, reusing its capacity.
func grow[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	sl = sl[:n]
	clear(sl)
	return sl
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// Tree returns the topology being simulated.
func (s *Sim) Tree() *tree.Tree { return s.tree }

// Inject dispatches a job (or packet task) to the given leaf at the
// current simulation time. The caller must have advanced the engine to
// the task's release time first. The returned JobState is live engine
// state; callers may read it but must not mutate it. Unless the engine
// is instrumented or records slices, it is recycled the moment the
// task completes and may then describe a later task: read the
// completion from Records() instead.
func (s *Sim) Inject(a *Arrival, leaf tree.NodeID) (*JobState, error) {
	li, err := s.leafIndex(leaf)
	if err != nil {
		return nil, err
	}
	if a.Release > s.now+timeEps {
		return nil, fmt.Errorf("sim: injecting job %d at t=%v before its release %v", a.ID, s.now, a.Release)
	}
	// Fault boundaries due at or before now take effect first, so a
	// job injected at exactly a boundary instant sees the post-fault
	// speeds (AdvanceTo already applies earlier ones).
	if s.opts.Faults != nil {
		s.applyDueBoundaries()
	}
	w := a.Weight
	if w <= 0 {
		w = 1
	}
	js := s.newTask()
	js.ID = a.ID
	js.Release = a.Release
	js.RouterSize = a.Size
	js.LeafWork = a.LeafSize(li)
	js.FracWeight = 1
	js.Weight = w
	js.Leaf = leaf
	js.leafSizes = a.LeafSizes
	s.claimSeq(js)
	return js, s.inject(js, a.Origin)
}

// leafIndex returns the leaf index of the node an assigner chose, or
// an error when the node is not a leaf of the tree — checked before
// anything indexes by it.
func (s *Sim) leafIndex(v tree.NodeID) (int, error) {
	if v < 0 || int(v) >= len(s.nodes) || !s.nodes[v].leaf {
		return -1, fmt.Errorf("sim: assignment to non-leaf node %d", v)
	}
	return s.tree.LeafIndex(v), nil
}

func (s *Sim) inject(js *JobState, origin tree.NodeID) error {
	if js.Weight <= 0 {
		js.Weight = 1
	}
	// Under redispatch recovery a fault-oblivious assigner may still
	// target an already-dead leaf; the dispatcher redirects the arrival
	// to a survivor (no Migration is recorded — the task never started
	// its original journey).
	if s.opts.Faults != nil && s.opts.Recovery == RecoverRedispatch {
		if at, dead := s.opts.Faults.DeathTime(js.Leaf); dead && at <= s.now {
			if to := s.pickSurvivor(js); to != tree.None {
				li := s.tree.LeafIndex(to)
				js.Leaf = to
				if js.leafSizes != nil {
					js.LeafWork = js.leafSizes[li] * js.FracWeight
					js.PrioLeaf = js.leafSizes[li]
				}
			}
		}
	}
	full := s.tree.Path(js.Leaf)
	if origin != 0 {
		// Arbitrary-origin extension: process only strictly below the
		// origin; the origin must be a path node or the leaf's parent.
		cut := -1
		for i, v := range full {
			if v == origin {
				cut = i
				break
			}
		}
		if cut < 0 {
			return fmt.Errorf("sim: job %d origin %d is not an ancestor of leaf %d", js.ID, origin, js.Leaf)
		}
		full = full[cut+1:]
		if len(full) == 0 {
			// Origin is the leaf itself: machine work still required.
			full = s.tree.Path(js.Leaf)[len(s.tree.Path(js.Leaf))-1:]
		}
	}
	if js.PrioRouter == 0 {
		js.PrioRouter = js.RouterSize
	}
	if js.PrioLeaf == 0 {
		js.PrioLeaf = js.LeafWork
	}
	if s.keepsTasks() {
		s.tasks = append(s.tasks, js)
	}
	s.activeTasks++
	s.fracSum += js.FracWeight
	s.startJourney(js, full, s.now)
	if s.opts.Observer != nil {
		s.opts.Observer(s)
	}
	return nil
}

// startJourney sends js down path from its first node at time now
// (injection, or a recovery re-dispatch): it resets the per-hop state,
// opens the hop records and pending sets when instrumented, enters
// the leaf's assigned list and upstream backlog, and queues the task.
func (s *Sim) startJourney(js *JobState, path []tree.NodeID, now float64) {
	js.Path = path
	js.Hop = 0
	js.OrigOnCur = s.sizeOn(js, 0)
	js.PrioOnCur = s.prioOn(js, 0)
	js.Remaining = js.OrigOnCur
	js.NodeArrive = now
	if s.opts.Instrument {
		js.HopArrive = grow(js.HopArrive, len(path))
		js.HopComplete = grow(js.HopComplete, len(path))
		js.HopArrive[0] = now
		js.pendIdx = grow(js.pendIdx, len(path))
		for i, v := range path {
			js.pendIdx[i] = len(s.pendingOn[v])
			s.pendingOn[v] = append(s.pendingOn[v], js)
		}
	}
	li := s.tree.LeafIndex(js.Leaf)
	js.leafIdx = len(s.assigned[li])
	s.assigned[li] = append(s.assigned[li], js)
	if len(path) > 1 {
		// The journey starts upstream of the leaf; availPush takes the
		// task back out of the backlog when it arrives there.
		s.upstreamWork[li] += js.LeafWork
	}
	s.setKey(js)
	// Sync before pushing: nodes sync lazily, and under processor
	// sharing the elapsed work must be distributed among the tasks
	// that were present, not the newcomer.
	first := path[0]
	s.sync(first)
	s.availPush(first, js)
	s.reschedule(first)
}

// availPush and availRemove are the queue-membership mutators: every
// membership change goes through them so the node's F-statistic
// snapshot is updated exactly at event boundaries.
func (s *Sim) availPush(v tree.NodeID, js *JobState) {
	n := &s.nodes[v]
	if n.leaf && js.Hop > 0 {
		// The task reached its leaf: it leaves the upstream backlog.
		// (A task pushed at Hop 0 on a leaf was dispatched there
		// directly and was never counted upstream.)
		s.upstreamWork[s.tree.LeafIndex(v)] -= js.LeafWork
	}
	if n.fsnap.active {
		n.fsnap.insert(n, js)
	}
	n.avail.push(js)
}

func (s *Sim) availRemove(v tree.NodeID, js *JobState) {
	n := &s.nodes[v]
	if n.fsnap.active {
		n.fsnap.remove(n, js)
	}
	n.avail.remove(js)
}

// sizeOn returns the task's full processing requirement on Path[hop].
func (s *Sim) sizeOn(js *JobState, hop int) float64 {
	if hop == len(js.Path)-1 {
		return js.LeafWork
	}
	return js.RouterSize
}

// prioOn returns the priority size (original job size) on Path[hop].
func (s *Sim) prioOn(js *JobState, hop int) float64 {
	if hop == len(js.Path)-1 {
		return js.PrioLeaf
	}
	return js.PrioRouter
}

func (s *Sim) setKey(js *JobState) {
	js.key1, js.key2 = s.opts.Policy.Key(js)
}

// sync brings the node's running task's Remaining and the node's
// accounting up to the engine clock. Under processor sharing the
// elapsed work is split equally across all available tasks.
func (s *Sim) sync(v tree.NodeID) { s.syncNode(&s.nodes[v]) }

// syncNode is sync for callers that already hold the node pointer —
// the reschedule and finish paths, where the duplicate indexed lookup
// showed up in the dispatch profile. The already-synced
// check lives here so it inlines into the hot callers (most calls are
// re-syncs at an unchanged clock); syncNodeSlow does the work.
func (s *Sim) syncNode(n *nodeState) {
	if n.lastSync >= s.now {
		return
	}
	s.syncNodeSlow(n)
}

func (s *Sim) syncNodeSlow(n *nodeState) {
	now := s.now
	from := n.lastSync
	dt := now - from
	n.lastSync = now
	if n.speed <= 0 {
		// Outage: the node is stalled, performing no work and counting
		// no busy time; no slice is recorded.
		return
	}
	if s.ps {
		k := n.avail.len()
		if k == 0 {
			return
		}
		share := dt * n.speed / float64(k)
		var done float64
		for _, js := range n.avail.tasks() {
			d := share
			if d > js.Remaining {
				d = js.Remaining
			}
			js.Remaining -= d
			done += d
		}
		n.busyTime += dt
		n.workDone += done
		return
	}
	if n.running == nil {
		return
	}
	done := dt * n.speed
	if done > n.running.Remaining {
		done = n.running.Remaining
	}
	n.running.Remaining -= done
	n.busyTime += dt
	n.workDone += done
	if s.opts.RecordSlices {
		// Extend the node's latest slice when the same task continued
		// (migrate cuts a re-dispatched task's old slices off, so its
		// two journeys never merge).
		if k := n.lastSlice; k >= 0 && s.slices[k].Seq == n.running.seq && s.slices[k].To == from {
			s.slices[k].To = now
		} else {
			n.lastSlice = len(s.slices)
			s.slices = append(s.slices, Slice{Node: n.id, Job: n.running.ID, Seq: n.running.seq, From: from, To: now})
		}
	}
}

// remainingAt returns js's remaining work on node n, where js is
// queued, at the engine clock: the value syncNode would leave in
// js.Remaining at that instant, computed without writing it. Queries
// and CheckInvariants read remaining work through it so they never
// move a sync instant.
func (s *Sim) remainingAt(n *nodeState, js *JobState) float64 {
	dt := s.now - n.lastSync
	if dt <= 0 || n.speed <= 0 {
		return js.Remaining
	}
	var done float64
	switch {
	case s.ps:
		done = dt * n.speed / float64(n.avail.len())
	case js == n.running:
		done = dt * n.speed
	default:
		return js.Remaining
	}
	if done > js.Remaining {
		done = js.Remaining
	}
	return js.Remaining - done
}

// residueTol bounds the float residue of a finished task's work,
// relative to its size on the node: syncs subtract elapsed work
// rounded, so a task whose exact work ends at t can hold a few ulps at
// t with its finish event an ulp later. No real work is this small.
const residueTol = 0x1p-40

// reschedule re-evaluates which task node v should run, moving,
// setting or clearing its finish event as needed. Callers must have
// already advanced time; reschedule syncs the node itself.
func (s *Sim) reschedule(v tree.NodeID) { s.rescheduleWith(v, false) }

// rescheduleForce reissues the finish event even when the running
// task is unchanged — needed after a fault boundary changes the
// node's speed underneath it, which moves the deadline.
func (s *Sim) rescheduleForce(v tree.NodeID) { s.rescheduleWith(v, true) }

func (s *Sim) rescheduleWith(v tree.NodeID, force bool) {
	if s.ps {
		s.reschedulePS(v)
		return
	}
	n := &s.nodes[v]
	s.syncNode(n)
	if n.running != nil && !s.staticKey {
		// The running task's key may depend on Remaining (SRPT);
		// static-key policies skip the refresh — re-deriving an
		// unchanged key cannot move the task in the heap.
		s.setKey(n.running)
		n.avail.fix(n.running)
	}
	best := n.avail.min()
	old := n.running
	if best == old && best != nil && !force {
		// The running task's event stands unchanged. (An idle node
		// whose task just finished or migrated goes on, to clear the
		// event that task left.)
		return
	}
	if old != nil && best != old && n.speed > 0 && old.Remaining <= old.OrigOnCur*residueTol {
		// old's work is done but for float residue (its finish event
		// lies an ulp or so past the clock): it finishes at this
		// instant, as exact arithmetic has it, instead of being
		// preempted with nothing left to do. Its event comes due now;
		// handleFinish then hands the node to best.
		old.Remaining = 0
		s.events.set(v, s.now)
		return
	}
	n.running = best
	if best != old && n.fsnap.active {
		// The snapshot counts every queued task but the running one.
		n.fsnap.runningChanged(n, old)
	}
	if n.leaf {
		s.fracRate -= n.fracContrib
		n.fracContrib = 0
	}
	if best == nil {
		s.events.clear(v)
		return
	}
	if n.leaf {
		n.fracContrib = best.FracWeight * n.speed / best.OrigOnCur
		s.fracRate += n.fracContrib
	}
	if n.speed <= 0 {
		// Outage: the task stays selected but cannot finish; the next
		// fault boundary restores the speed and reschedules.
		s.events.clear(v)
		return
	}
	s.events.set(v, s.now+best.Remaining/n.speed)
}

// reschedulePS is the processor-sharing variant: all available tasks
// progress at rate speed/k, so the next completion is the minimum
// remaining task and its finish time scales with the share count.
func (s *Sim) reschedulePS(v tree.NodeID) {
	n := &s.nodes[v]
	s.sync(v)
	var best *JobState
	for _, js := range n.avail.tasks() {
		if best == nil ||
			js.Remaining < best.Remaining ||
			(js.Remaining == best.Remaining && (js.ID < best.ID || (js.ID == best.ID && js.seq < best.seq))) {
			best = js
		}
	}
	// Any change to the share count moves every deadline, so always
	// reissue the event.
	n.running = best
	if n.leaf {
		s.fracRate -= n.fracContrib
		n.fracContrib = 0
	}
	if best == nil {
		s.events.clear(v)
		return
	}
	k := float64(n.avail.len())
	if n.leaf {
		var contrib float64
		for _, js := range n.avail.tasks() {
			contrib += js.FracWeight * (n.speed / k) / js.OrigOnCur
		}
		n.fracContrib = contrib
		s.fracRate += contrib
	}
	if n.speed <= 0 {
		s.events.clear(v) // outage: no completion until a boundary restores speed
		return
	}
	s.events.set(v, s.now+best.Remaining*k/n.speed)
}

// advance moves the clock forward to the next stop with no event in
// between, accumulating the flow-time integrals. The clock stops at
// every arrival, every finish event and every fault boundary; those
// instants are the quadrature points of the integrals, so they fix
// FracFlow's and ActiveIntegral's bits.
func (s *Sim) advance(to float64) {
	dt := to - s.now
	if dt <= 0 {
		return
	}
	s.activeIntegral += float64(s.activeTasks) * dt
	s.fracIntegral += s.fracSum*dt - 0.5*s.fracRate*dt*dt
	s.fracSum -= s.fracRate * dt
	if s.fracSum < 0 {
		s.fracSum = 0 // floating-point guard
	}
	s.now = to
}

// run processes finish events and fault boundaries in time order: up
// to and including target, or all of them when drain is set. At equal
// instants finish events win (a task completing exactly at an outage
// start still completes), then boundaries; events tie by descending
// node (children first, see before), and boundaries keep the
// schedule's (time, node) order.
func (s *Sim) run(target float64, drain bool) {
	for {
		evs := s.events.evs
		if s.opts.Faults != nil {
			if b, ok := s.peekBoundary(); ok && (drain || b.At <= target) &&
				(len(evs) == 0 || b.At < evs[0].time()) {
				s.advance(b.At)
				s.applyBoundary(b)
				continue
			}
		}
		if len(evs) == 0 || (!drain && evs[0].time() > target) {
			return
		}
		ev := evs[0]
		s.advance(ev.time())
		s.handleFinish(ev.node)
	}
}

// AdvanceTo processes all events (and fault boundaries) up to and
// including the target time and leaves the clock there. Violated
// engine invariants panic with *InternalError; Drain, ReplayOn,
// ReplayStreamOn and RunPacketized recover those into error returns.
func (s *Sim) AdvanceTo(target float64) {
	if target < s.now-timeEps {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now=%v", target, s.now))
	}
	s.run(target, false)
	s.advance(target)
}

// Drain runs the engine until no events or fault boundaries remain.
// It returns a *StuckError when tasks can no longer progress (a
// permanently lost leaf under RecoverHold), a *InternalError when an
// engine invariant or — with Instrument and RecordSlices set — the
// schedule audit fails, and nil on a clean drain. Whatever it
// returns, a pipelined NDJSONSink has written every completion by
// then and its encoder goroutine has stopped.
func (s *Sim) Drain() (err error) {
	defer s.stream.join()
	defer recoverInternal(&err)
	s.run(0, true)
	if act := s.Active(); act != 0 {
		dumps, _ := dumpActive(s)
		return &StuckError{Now: s.now, Active: act, Tasks: dumps}
	}
	if s.opts.SelfCheck {
		if err := s.CheckInvariants(); err != nil {
			return err
		}
	}
	// With full instrumentation on, every drained run audits its own
	// recorded schedule, so test suites double as conformance tests.
	if s.opts.Instrument && s.opts.RecordSlices && !s.ps {
		if rep := s.Audit(); !rep.OK() {
			return &AuditError{Report: rep}
		}
	}
	return nil
}

// peekBoundary returns the next unapplied fault boundary.
func (s *Sim) peekBoundary() (faults.Boundary, bool) {
	bs := s.opts.Faults.Boundaries()
	if s.faultIdx >= len(bs) {
		return faults.Boundary{}, false
	}
	return bs[s.faultIdx], true
}

// applyDueBoundaries applies boundaries at or before the current time
// (Inject's guard; AdvanceTo handles them during time travel).
func (s *Sim) applyDueBoundaries() {
	for {
		b, ok := s.peekBoundary()
		if !ok || b.At > s.now {
			return
		}
		s.applyBoundary(b)
	}
}

// applyBoundary installs node b.Node's new fault-scaled speed; the
// clock must already stand at b.At (or at the injection instant for
// boundaries applied by Inject's guard). The node is synced under
// the old speed first, then the finish event is reissued since its
// deadline scales with the speed. A permanent leaf loss triggers the
// recovery policy.
func (s *Sim) applyBoundary(b faults.Boundary) {
	s.faultIdx++
	n := &s.nodes[b.Node]
	s.sync(b.Node)
	n.speed = n.baseSpeed * s.opts.Faults.FactorAt(b.Node, b.At)
	if n.leaf && s.opts.Recovery == RecoverRedispatch {
		if at, dead := s.opts.Faults.DeathTime(b.Node); dead && at == b.At {
			s.redispatchLeaf(b.Node)
		}
	}
	s.rescheduleForce(b.Node)
}

// redispatchLeaf re-dispatches every incomplete task assigned to the
// lost leaf, in injection order, onto surviving leaves.
func (s *Sim) redispatchLeaf(dead tree.NodeID) {
	li := s.tree.LeafIndex(dead)
	if len(s.assigned[li]) == 0 {
		return
	}
	// Snapshot: migration mutates the assigned list. Sort by sequence
	// so tasks migrate in injection order regardless of the list's
	// swap-removal history.
	batch := append([]*JobState(nil), s.assigned[li]...)
	sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
	for _, js := range batch {
		to := s.pickSurvivor(js)
		if to == tree.None {
			// No surviving leaf: the task stays held; Drain reports it.
			continue
		}
		s.migrate(js, to)
	}
}

// pickSurvivor chooses the surviving leaf with the least remaining
// assigned leaf volume including the migrating task's own requirement
// there — deterministic (first minimum in leaf order wins) and
// load-aware in the spirit of the greedy rules.
func (s *Sim) pickSurvivor(js *JobState) tree.NodeID {
	best := tree.None
	var bestCost float64
	for i, leaf := range s.tree.Leaves() {
		if at, dead := s.opts.Faults.DeathTime(leaf); dead && at <= s.now {
			continue
		}
		var vol float64
		for _, other := range s.assigned[i] {
			if other.Hop == len(other.Path)-1 {
				vol += other.Remaining
			} else {
				vol += other.LeafWork
			}
		}
		cost := vol + js.workOnLeaf(i)
		if best == tree.None || cost < bestCost {
			best, bestCost = leaf, cost
		}
	}
	return best
}

// workOnLeaf returns the task's leaf processing requirement were it
// assigned to leaf index li.
func (js *JobState) workOnLeaf(li int) float64 {
	if js.leafSizes == nil {
		return js.LeafWork // identical endpoints: the same everywhere
	}
	// FracWeight scales packet pieces (1 for whole jobs).
	return js.leafSizes[li] * js.FracWeight
}

// migrate re-dispatches one task from its current position to leaf
// `to`: it restarts at the root of the new leaf's path with full
// remaining work there (partial work on the abandoned journey is
// lost), and the move is recorded as a Migration.
func (s *Sim) migrate(js *JobState, to tree.NodeID) {
	cur := js.CurrentNode()
	n := &s.nodes[cur]
	now := s.now
	s.sync(cur)
	// The fractional-flow sum returns to a full remaining fraction
	// once the task restarts.
	frac := 1.0
	if js.Hop == len(js.Path)-1 {
		frac = js.Remaining / js.OrigOnCur
	}
	s.fracSum += js.FracWeight * (1 - frac)
	s.availRemove(cur, js)
	if n.running == js {
		// The node's event stays until rescheduleForce below moves or
		// clears it.
		n.running = nil
		if n.leaf {
			s.fracRate -= n.fracContrib
			n.fracContrib = 0
		}
	}
	if s.opts.Instrument {
		for h := js.Hop; h < len(js.Path); h++ {
			s.pendRemove(js.Path[h], js)
		}
	}
	s.assignedRemove(s.tree.LeafIndex(js.Leaf), js)
	if js.Hop < len(js.Path)-1 {
		// Still upstream of the abandoned leaf: leave its backlog. (A
		// task that had reached the leaf was removed at availPush.)
		s.upstreamWork[s.tree.LeafIndex(js.Leaf)] -= js.LeafWork
	}
	if s.opts.RecordSlices {
		// The abandoned journey's slices are closed: a restart on one of
		// its nodes opens a new slice, which the auditor checks as part
		// of the new journey.
		for _, v := range js.Path {
			if k := s.nodes[v].lastSlice; k >= 0 && s.slices[k].Seq == js.seq {
				s.nodes[v].lastSlice = -1
			}
		}
	}
	s.migrations = append(s.migrations, Migration{
		Job: js.ID, Seq: js.seq, At: now, From: js.Leaf, To: to,
		OldPath: js.Path, OldLeafWork: js.LeafWork,
	})

	li := s.tree.LeafIndex(to)
	js.Leaf = to
	if js.leafSizes != nil {
		js.LeafWork = js.leafSizes[li] * js.FracWeight
		js.PrioLeaf = js.leafSizes[li]
	}
	// Hop records restart for the new journey; the abandoned journey
	// survives in the slice log and the Migration record.
	s.startJourney(js, s.tree.Path(to), now)
	s.rescheduleForce(cur)
}

// Migrations returns the recovery re-dispatches recorded so far, in
// time order. Live engine state: read-only for callers.
func (s *Sim) Migrations() []Migration { return s.migrations }

// handleFinish completes the running task on node v.
func (s *Sim) handleFinish(v tree.NodeID) {
	n := &s.nodes[v]
	now := s.now
	js := n.running
	if js == nil {
		panic(s.internalErr("handleFinish", "finish event on idle node %d", v))
	}
	s.syncNode(n)
	if s.opts.SelfCheck && js.Remaining > 1e-6 {
		panic(s.internalErr("handleFinish", "task %d finished on node %d with %v remaining", js.ID, v, js.Remaining))
	}
	js.Remaining = 0
	s.eventCount++

	// The node's event stays at the heap top until reschedule(v) below
	// moves it to the node's next task or clears it.
	s.availRemove(v, js)
	n.running = nil
	if n.leaf {
		s.fracRate -= n.fracContrib
		n.fracContrib = 0
	}
	if s.opts.Instrument {
		js.HopComplete[js.Hop] = now
		s.pendRemove(v, js)
	}

	js.Hop++
	if js.Hop == len(js.Path) {
		// Completed on the leaf machine.
		js.Completed = true
		js.Completion = now
		s.activeTasks--
		li := s.tree.LeafIndex(js.Leaf)
		s.assignedRemove(li, js)
		s.complete(js, li) // may recycle js: not referenced below
	} else {
		w := js.Path[js.Hop]
		js.OrigOnCur = s.sizeOn(js, js.Hop)
		js.PrioOnCur = s.prioOn(js, js.Hop)
		js.Remaining = js.OrigOnCur
		js.NodeArrive = now
		if s.opts.Instrument {
			js.HopArrive[js.Hop] = now
		}
		s.setKey(js)
		s.sync(w) // see Inject: distribute elapsed work before joining
		s.availPush(w, js)
		s.reschedule(w)
	}
	s.reschedule(v)
	if s.opts.Observer != nil {
		s.opts.Observer(s)
	}
}

// complete is the one completion path of a task that just finished on
// its leaf (leaf index li): it writes the task's JobMetrics record —
// into its Records() slot, or under bounded retention into the ring —
// runs the streaming hooks, and returns js to the freelist unless the
// engine keeps task state for introspection.
func (s *Sim) complete(js *JobState, li int) {
	if js.Completion > math.MaxFloat64 {
		// Job.Validate caps sizes at workload.MaxSize, yet a slow
		// enough node (a tiny speed or brown-out factor) still takes a
		// finite size past the float64 clock: report the run, not a
		// +Inf flow.
		panic(s.internalErr("complete", "job %d completes at %v: its work overflows the float64 clock", js.ID, js.Completion))
	}
	st := s.stream
	var m *JobMetrics
	if s.opts.RetainJobs == 0 {
		m = &s.records[js.seq]
	} else {
		// The ring's scratch: a local would escape through the sink
		// interface and cost one heap allocation per job.
		m = &st.scratch
	}
	*m = JobMetrics{
		ID:         js.ID,
		Release:    js.Release,
		Completion: js.Completion,
		Flow:       js.Completion - js.Release,
		Leaf:       js.Leaf,
		PathWork:   js.RouterSize*float64(len(js.Path)-1) + js.LeafWork,
		Weight:     js.Weight,
	}
	if st != nil {
		st.acc.observe(m, li, js.LeafWork)
		if st.enc != nil {
			st.enc.add(m)
		} else if st.sink != nil && st.sinkErr == nil {
			st.sinkErr = st.sink.Emit(m)
		}
		if st.retain > 0 {
			st.push(m)
		}
	}
	if !s.keepsTasks() {
		s.recycle(js)
	}
}

func (s *Sim) assignedRemove(li int, js *JobState) {
	lst := s.assigned[li]
	i, n := js.leafIdx, len(lst)-1
	lst[i] = lst[n]
	lst[i].leafIdx = i
	s.assigned[li] = lst[:n]
	js.leafIdx = -1
}

func (s *Sim) pendRemove(v tree.NodeID, js *JobState) {
	hop := -1
	for i, u := range js.Path {
		if u == v {
			hop = i
			break
		}
	}
	lst := s.pendingOn[v]
	i, n := js.pendIdx[hop], len(lst)-1
	lst[i] = lst[n]
	// Fix the moved task's back-pointer for this node.
	moved := lst[i]
	for mi, u := range moved.Path {
		if u == v {
			moved.pendIdx[mi] = i
			break
		}
	}
	s.pendingOn[v] = lst[:n]
	js.pendIdx[hop] = -1
}

// Active returns the number of incomplete tasks.
func (s *Sim) Active() int { return s.activeTasks }

// Slices returns the exact processing record (requires
// Options.RecordSlices): one log, in the order the slices opened, in
// which a node's consecutive slices of one task are merged. Live
// engine state, reused after a Reset: read-only for callers, copy it
// to retain.
func (s *Sim) Slices() []Slice {
	if !s.opts.RecordSlices {
		panic("sim: Slices requires Options.RecordSlices")
	}
	return s.slices
}

// Tasks returns all tasks ever injected, in injection order, on an
// engine with Options.Instrument or Options.RecordSlices set; it is
// empty on any other engine, which recycles a task's state at
// completion (Records() holds what is left of it). Live engine state:
// read-only for callers.
func (s *Sim) Tasks() []*JobState { return s.tasks }

// Records returns one JobMetrics record per injected task, in
// injection order (packets of one job each have their own); it is
// empty under bounded retention (Options.RetainJobs > 0). The slot of
// a task that has not completed holds only its job ID, so its Weight
// is zero, while every completed task's Weight is positive. Live
// engine state: read-only for callers. After a run with one record
// per job, Records() is the very buffer the run's Result.Jobs holds;
// Reset moves the engine to a new one.
func (s *Sim) Records() []JobMetrics { return s.records }

// Stats summarize an engine run.
type Stats struct {
	// TotalFlow is Σ_j (C_j − r_j) over completed tasks.
	TotalFlow float64
	// WeightedFlow is Σ_j w_j (C_j − r_j).
	WeightedFlow float64
	// FracFlow is the paper's fractional flow time: the time integral
	// of Σ weight·(remaining leaf work fraction).
	FracFlow float64
	// ActiveIntegral is ∫ (number of active tasks) dt; equals
	// TotalFlow when every task completes (cross-check invariant).
	ActiveIntegral float64
	MaxFlow        float64
	Makespan       float64
	Events         int64
	Completed      int
}

// totals returns the engine's running totals.
func (s *Sim) totals() (fracFlow, activeIntegral float64, events int64) {
	return s.fracIntegral, s.activeIntegral, s.eventCount
}

// Stats computes summary statistics of the run so far, summing the
// completed tasks' records in injection order. Under bounded
// retention the completion-dependent fields come from the online
// accumulator (there are no records to walk).
func (s *Sim) Stats() Stats {
	var st Stats
	st.FracFlow, st.ActiveIntegral, st.Events = s.totals()
	if s.opts.RetainJobs > 0 {
		a := &s.stream.acc
		st.Completed = a.Completed
		st.TotalFlow = a.TotalFlow
		st.WeightedFlow = a.WeightedFlow
		st.MaxFlow = a.MaxFlow
		st.Makespan = a.Makespan
		return st
	}
	for i := range s.records {
		m := &s.records[i]
		if m.Weight == 0 {
			continue // not completed yet
		}
		st.Completed++
		st.TotalFlow += m.Flow
		st.WeightedFlow += m.Weight * m.Flow
		if m.Flow > st.MaxFlow {
			st.MaxFlow = m.Flow
		}
		if m.Completion > st.Makespan {
			st.Makespan = m.Completion
		}
	}
	return st
}

// NodeUtilization returns per-node (busyTime, workDone) up to the
// engine clock.
func (s *Sim) NodeUtilization(v tree.NodeID) (busy, work float64) {
	// Report includes the running task's progress up to now.
	n := &s.nodes[v]
	busy, work = n.busyTime, n.workDone
	if n.running != nil && n.speed > 0 {
		dt := s.now - n.lastSync
		done := math.Min(dt*n.speed, n.running.Remaining)
		busy += dt
		work += done
	}
	return busy, work
}

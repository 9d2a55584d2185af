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
	// shard indexes Sim.shards at the node's root-adjacent subtree
	// (0 for the root itself, which performs no processing).
	shard int32
	// speed is the node's current effective speed; baseSpeed is the
	// tree's speed, which fault boundaries scale by their factor.
	speed     float64
	baseSpeed float64
	leaf      bool

	avail taskQueue
	// fsnap is the node's F-statistic snapshot (see fstat.go),
	// invalidated on every queue membership change.
	fsnap   fstat
	running *JobState
	// finishSeq invalidates scheduled finish events; only the event
	// carrying the current value is live.
	finishSeq uint64
	lastSync  float64

	busyTime float64
	workDone float64
	// fracContrib is this leaf's current drain rate of its shard's
	// fractional-flow sum (0 for routers and idle leaves).
	fracContrib float64
}

type finishEvent struct {
	at   float64
	node tree.NodeID
	seq  uint64
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
	// UseScanQueue selects the O(n) reference queue (experiment B8).
	UseScanQueue bool
	// SelfCheck enables internal invariant assertions (tests).
	SelfCheck bool
	// Observer, when set, is called after every state change (task
	// injection and every node completion). Used by the Lemma
	// validators to check invariants at event granularity. An Observer
	// needs a single global event order, so the engine then steps every
	// shard in lockstep through one time-ordered event loop.
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
	// Not supported by RunPacketized.
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
// Internally the engine is decomposed at the root's children into
// shards: each shard owns the event heap, clock, flow-time
// accumulators, slice log and task arena of one root-child subtree.
// The root performs no processing and every task's path lies inside
// one subtree, so shards share no mutable state after dispatch, and
// one event loop steps them shard by shard between arrivals.
type Sim struct {
	tree *tree.Tree
	opts Options

	// now is the engine-level clock: the last AdvanceTo target, and
	// after Drain the maximum shard time. Individual shards may run
	// ahead of or behind it transiently while events are processed.
	now   float64
	nodes []nodeState

	// shards hold the per-subtree event machinery, one per root-child
	// subtree in root-adjacent order; shardOf[v] indexes shards by node
	// (0 for the root itself, which performs no processing).
	shards  []shardState
	shardOf []int32

	// tasks lists every injected task in injection order, on engines
	// that keep task state for introspection (keepsTasks); elsewhere
	// completed tasks are recycled and live ones are reached through
	// assigned. records[seq] is the completion record of the task
	// injected seq-th (a slot holds only its job ID until the task
	// completes); it stays empty under bounded retention.
	tasks   []*JobState
	records []JobMetrics
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
	// sliceCat is the reused concatenation buffer Slices() returns.
	sliceCat []Slice

	// assigned[leafIndex] lists incomplete tasks assigned to the leaf
	// (the paper's Q_v(t) for leaves).
	assigned [][]*JobState
	// upstreamWork[leafIndex] = Σ LeafWork over the tasks assigned to
	// the leaf that have not yet arrived at it — the store-and-forward
	// backlog Query.AssignedUpstreamWork reports without scanning the
	// leaf queue. Maintained at dispatch, leaf arrival (availPush) and
	// migration; a leaf's entry is only touched by its owning shard.
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
	s.shardOf = make([]int32, t.NumNodes())
	s.shards = make([]shardState, len(t.RootAdjacent()))
	for k, h := range t.RootAdjacent() {
		s.shardOf[h] = int32(k)
		for _, l := range t.SubtreeLeaves(h) {
			for _, v := range t.Path(l) {
				s.shardOf[v] = int32(k)
			}
		}
	}
	s.nodes = make([]nodeState, t.NumNodes())
	for i := range s.nodes {
		n := &s.nodes[i]
		n.id = tree.NodeID(i)
		n.shard = s.shardOf[i]
		n.baseSpeed = t.Speed(n.id)
		n.speed = n.baseSpeed
		n.leaf = t.IsLeaf(n.id)
	}
	s.assigned = make([][]*JobState, len(t.Leaves()))
	s.upstreamWork = make([]float64, len(t.Leaves()))
	s.applyOptions(opts)
	return s
}

// NumShards returns the number of shards the engine is partitioned
// into: one per root-child subtree.
func (s *Sim) NumShards() int { return len(s.shards) }

// applyOptions installs opts, building or clearing the per-node queues
// as needed. The queue implementation depends on the options (scan for
// PS and UseScanQueue, heap otherwise), so a Reset that changes either
// rebuilds the queues; otherwise they are emptied in place.
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
	scan := opts.UseScanQueue || ps
	prevScan := s.opts.UseScanQueue || s.ps
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
		case n.avail == nil || scan != prevScan:
			if scan {
				n.avail = newScanQueue()
			} else {
				n.avail = newHeapQueue()
			}
		default:
			n.avail.clear()
		}
		n.fsnap.clear()
	}
	// Partition the global boundary list by shard; filtering a
	// (time, node)-sorted list keeps each shard's list sorted.
	for k := range s.shards {
		s.shards[k].bounds = s.shards[k].bounds[:0]
	}
	if opts.Faults != nil {
		for _, b := range opts.Faults.Boundaries() {
			k := s.shardOf[b.Node]
			s.shards[k].bounds = append(s.shards[k].bounds, b)
		}
	}
	if opts.Instrument && s.pendingOn == nil {
		s.pendingOn = make([][]*JobState, len(s.nodes))
	}
	if opts.RetainJobs < 0 {
		panic(fmt.Sprintf("sim: Options.RetainJobs must be >= 0, got %d", opts.RetainJobs))
	}
	s.stream = nil
	if opts.RetainJobs > 0 || opts.Sink != nil {
		st := &streamState{retain: opts.RetainJobs, sink: opts.Sink}
		st.acc.PerLeaf = make([]LeafTally, len(s.tree.Leaves()))
		for li, v := range s.tree.Leaves() {
			st.acc.PerLeaf[li].Leaf = v
		}
		if st.retain > 0 {
			st.ring = make([]JobMetrics, 0, st.retain)
		}
		s.stream = st
	}
}

// Reset returns the engine to an empty state at time zero while
// retaining every allocated buffer (event heaps, node queues, task
// arenas, instrumentation slices), so replaying traces on one engine
// approaches zero allocations per run. opts may differ arbitrarily
// from the previous run's options — changing Policy, Instrument,
// UseScanQueue, Faults, etc. is supported and the engine reconfigures
// itself.
//
// Reset recycles every JobState the previous run still held — the
// live tasks, and on an instrumented engine the completed ones too —
// and empties Records(): pointers previously obtained from Tasks(),
// Inject or a Result that references this engine become invalid.
// Extract any metrics you need before resetting.
func (s *Sim) Reset(opts Options) {
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
	s.records = s.records[:0]
	s.nextSeq = 0
	s.now = 0
	for i := range s.nodes {
		n := &s.nodes[i]
		n.running = nil
		n.finishSeq = 0
		n.lastSync = 0
		n.busyTime = 0
		n.workDone = 0
		n.fracContrib = 0
	}
	for k := range s.shards {
		sh := &s.shards[k]
		sh.now = 0
		sh.events = sh.events[:0]
		sh.faultIdx = 0
		sh.activeTasks = 0
		sh.fracSum, sh.fracRate = 0, 0
		sh.fracIntegral, sh.activeIntegral = 0, 0
		sh.eventCount = 0
		sh.slices = sh.slices[:0]
		sh.mergeFloor = 0
	}
	for i := range s.upstreamWork {
		s.upstreamWork[i] = 0
	}
	for i := range s.pendingOn {
		s.pendingOn[i] = s.pendingOn[i][:0]
	}
	s.sliceCat = s.sliceCat[:0]
	s.migrations = s.migrations[:0]
	s.applyOptions(opts)
}

// taskBlockSize is how many JobStates one arena chunk holds; one chunk
// allocation amortizes over this many injections.
const taskBlockSize = 512

// newTask returns a zeroed JobState from the shard's freelist or
// arena.
// Instrumentation buffers of recycled tasks are kept (emptied) when
// the engine is instrumented so inject can refill them in place; in
// uninstrumented mode they are dropped to nil, which downstream code
// (e.g. trace rendering) uses to detect the absence of hop timings.
func (s *Sim) newTask(sh *shardState) *JobState {
	if n := len(sh.free); n > 0 {
		js := sh.free[n-1]
		sh.free = sh.free[:n-1]
		ha, hc, pi := js.HopArrive, js.HopComplete, js.pendIdx
		*js = JobState{}
		if s.opts.Instrument {
			js.HopArrive = ha[:0]
			js.HopComplete = hc[:0]
			js.pendIdx = pi[:0]
		}
		return js
	}
	if len(sh.block) == 0 {
		sh.block = make([]JobState, taskBlockSize)
	}
	js := &sh.block[0]
	sh.block = sh.block[1:]
	return js
}

// recycle returns js to the freelist of its leaf's shard, the shard
// that completes it.
func (s *Sim) recycle(js *JobState) {
	sh := &s.shards[s.shardOf[js.Leaf]]
	sh.free = append(sh.free, js)
}

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
	if s.tree.LeafIndex(leaf) < 0 {
		return nil, fmt.Errorf("sim: assignment to non-leaf node %d", leaf)
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
	js := s.newTask(&s.shards[s.shardOf[leaf]])
	js.ID = a.ID
	js.Release = a.Release
	js.RouterSize = a.Size
	js.LeafWork = a.LeafSize(s.tree.LeafIndex(leaf))
	js.FracWeight = 1
	js.Weight = w
	js.Leaf = leaf
	js.leafSizes = a.LeafSizes
	s.claimSeq(js)
	return js, s.inject(js, a.Origin)
}

func (s *Sim) inject(js *JobState, origin tree.NodeID) error {
	if js.Weight <= 0 {
		js.Weight = 1
	}
	// Under redispatch recovery a fault-oblivious assigner may still
	// target an already-dead leaf; the dispatcher redirects the arrival
	// to a survivor (no Migration is recorded — the task never started
	// its original journey). Cross-shard state is read here, which is
	// sound: redirect requires deaths, and deaths switch the engine to
	// the global-order loop with every shard advanced to the injection
	// instant.
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
	// Stats (activeTasks, fracSum) are charged to the leaf's shard,
	// which holds every node of the task's path.
	sh := &s.shards[s.shardOf[js.Leaf]]
	if js.PrioRouter == 0 {
		js.PrioRouter = js.RouterSize
	}
	if js.PrioLeaf == 0 {
		js.PrioLeaf = js.LeafWork
	}
	if s.keepsTasks() {
		s.tasks = append(s.tasks, js)
	}
	sh.activeTasks++
	sh.fracSum += js.FracWeight
	s.startJourney(js, full, sh.now)
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
		n.fsnap.insert(js)
	}
	n.avail.push(js)
}

func (s *Sim) availRemove(v tree.NodeID, js *JobState) {
	n := &s.nodes[v]
	if n.fsnap.active {
		n.fsnap.remove(js)
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
// accounting up to the node's shard time. Under processor sharing the
// elapsed work is split equally across all available tasks.
func (s *Sim) sync(v tree.NodeID) { s.syncNode(&s.nodes[v]) }

// syncNode is sync for callers that already hold the node pointer —
// the reschedule and snapshot-refresh paths, where the duplicate
// indexed lookup showed up in the dispatch profile. The already-synced
// check lives here so it inlines into the hot callers (most calls are
// re-syncs at an unchanged shard clock); syncNodeSlow does the work.
func (s *Sim) syncNode(n *nodeState) {
	sh := &s.shards[n.shard]
	if n.lastSync >= sh.now {
		return
	}
	s.syncNodeSlow(n, sh)
}

func (s *Sim) syncNodeSlow(n *nodeState, sh *shardState) {
	now := sh.now
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
		// Merge with the previous slice when the same task continued —
		// but never across a migration (mergeFloor): a re-dispatched
		// task restarting on the same node is a new journey and the
		// auditor checks the two legs separately.
		if k := len(sh.slices) - 1; k >= 0 && k >= sh.mergeFloor && sh.slices[k].Node == n.id &&
			sh.slices[k].Seq == n.running.seq && sh.slices[k].To == from {
			sh.slices[k].To = now
		} else {
			sh.slices = append(sh.slices, Slice{Node: n.id, Job: n.running.ID, Seq: n.running.seq, From: from, To: now})
		}
	}
}

// reschedule re-evaluates which task node v should run, scheduling or
// cancelling its finish event as needed. Callers must have already
// advanced time; reschedule syncs the node itself.
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
	sh := &s.shards[n.shard]
	s.syncNode(n)
	if n.running != nil && !s.staticKey {
		// The running task's key may depend on Remaining (SRPT);
		// static-key policies skip the refresh — re-deriving an
		// unchanged key cannot move the task in the heap.
		s.setKey(n.running)
		n.avail.fix(n.running)
	}
	best := n.avail.min()
	if best == n.running && !force {
		return
	}
	if old := n.running; old != nil && old != best && n.fsnap.active {
		// Preemption without a membership change (the policy key can
		// drift under SRPT): the preempted task keeps its queue slot
		// but its stored snapshot Remaining is stale now that the
		// running-task correction stops covering it.
		n.fsnap.markStale(old)
	}
	n.running = best
	n.finishSeq++
	if n.leaf {
		sh.fracRate -= n.fracContrib
		n.fracContrib = 0
	}
	if best == nil {
		return
	}
	if n.leaf {
		n.fracContrib = best.FracWeight * n.speed / best.OrigOnCur
		sh.fracRate += n.fracContrib
	}
	if n.speed <= 0 {
		// Outage: the task stays selected but cannot finish; the next
		// fault boundary restores the speed and reschedules.
		return
	}
	sh.pushEvent(finishEvent{
		at:   sh.now + best.Remaining/n.speed,
		node: v,
		seq:  n.finishSeq,
	})
}

// reschedulePS is the processor-sharing variant: all available tasks
// progress at rate speed/k, so the next completion is the minimum
// remaining task and its finish time scales with the share count.
func (s *Sim) reschedulePS(v tree.NodeID) {
	n := &s.nodes[v]
	sh := &s.shards[n.shard]
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
	n.finishSeq++
	if n.leaf {
		sh.fracRate -= n.fracContrib
		n.fracContrib = 0
	}
	if best == nil {
		return
	}
	k := float64(n.avail.len())
	if n.leaf {
		var contrib float64
		for _, js := range n.avail.tasks() {
			contrib += js.FracWeight * (n.speed / k) / js.OrigOnCur
		}
		n.fracContrib = contrib
		sh.fracRate += contrib
	}
	if n.speed <= 0 {
		return // outage: no completion until a boundary restores speed
	}
	sh.pushEvent(finishEvent{
		at:   sh.now + best.Remaining*k/n.speed,
		node: v,
		seq:  n.finishSeq,
	})
}

// nextEvent returns shard sh's earliest live finish event without
// removing it, discarding stale entries.
func (s *Sim) nextEvent(sh *shardState) (finishEvent, bool) {
	for len(sh.events) > 0 {
		top := sh.events[0]
		if s.nodes[top.node].finishSeq == top.seq {
			return top, true
		}
		sh.popEvent()
	}
	return finishEvent{}, false
}

// advanceShard moves one shard's clock forward with no events in
// between, accumulating its flow-time integrals. The instants a shard
// advances through (all arrival releases, plus the shard's own events
// and boundaries, plus the common drain end time) are the quadrature
// points of those integrals, so they fix FracFlow's bits.
func (s *Sim) advanceShard(sh *shardState, to float64) {
	dt := to - sh.now
	if dt <= 0 {
		return
	}
	sh.activeIntegral += float64(sh.activeTasks) * dt
	sh.fracIntegral += sh.fracSum*dt - 0.5*sh.fracRate*dt*dt
	sh.fracSum -= sh.fracRate * dt
	if sh.fracSum < 0 {
		sh.fracSum = 0 // floating-point guard
	}
	sh.now = to
}

// advanceShardTo processes shard k's events and fault boundaries up
// to and including target and leaves the shard clock there. At equal
// instants finish events win (a task completing exactly at an outage
// start still completes), then boundaries.
func (s *Sim) advanceShardTo(k int, target float64) {
	sh := &s.shards[k]
	for {
		// Fast path: the heap top is the earliest queued entry (live or
		// stale), so top.at > target means no event is due and the
		// staleness validation (a random node lookup) can wait; stale
		// tops beyond target stay queued and are discarded whenever the
		// clock reaches them. Querying assigners hit this on every
		// shard at every arrival.
		if len(sh.events) == 0 || sh.events[0].at > target {
			if s.opts.Faults == nil {
				break
			}
			if b, ok := sh.peekBoundary(); !ok || b.At > target {
				break
			}
		}
		ev, evOK := s.nextEvent(sh)
		if s.opts.Faults != nil {
			if b, bOK := sh.peekBoundary(); bOK && b.At <= target && (!evOK || b.At < ev.at || ev.at > target) {
				s.advanceShard(sh, b.At)
				s.applyBoundary(sh, b)
				continue
			}
		}
		if !evOK || ev.at > target {
			break
		}
		sh.popEvent()
		s.advanceShard(sh, ev.at)
		s.handleFinish(ev.node)
	}
	s.advanceShard(sh, target)
}

// drainShard processes every remaining event and boundary of shard k,
// with the same tie order as advanceShardTo.
func (s *Sim) drainShard(k int) {
	sh := &s.shards[k]
	for {
		ev, evOK := s.nextEvent(sh)
		if s.opts.Faults != nil {
			if b, bOK := sh.peekBoundary(); bOK && (!evOK || b.At < ev.at) {
				s.advanceShard(sh, b.At)
				s.applyBoundary(sh, b)
				continue
			}
		}
		if !evOK {
			break
		}
		sh.popEvent()
		s.advanceShard(sh, ev.at)
		s.handleFinish(ev.node)
	}
}

// AdvanceTo processes all events (and fault boundaries) up to and
// including the target time and leaves every shard's clock there.
// Violated engine invariants panic with *InternalError; Drain,
// ReplayOn, ReplayStreamOn and RunPacketized recover those into error
// returns.
func (s *Sim) AdvanceTo(target float64) {
	if target < s.now-timeEps {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now=%v", target, s.now))
	}
	if s.interleavedMode() {
		s.runInterleaved(target, false)
	} else {
		for k := range s.shards {
			s.advanceShardTo(k, target)
		}
	}
	s.now = target
}

// interleavedMode reports whether events must be processed in one
// global time order rather than shard by shard: Observers watch
// cross-shard state at event granularity, and recovery re-dispatch
// migrates tasks across shards.
func (s *Sim) interleavedMode() bool {
	return s.opts.Observer != nil ||
		(s.opts.Faults != nil && s.opts.Faults.HasDeaths() && s.opts.Recovery == RecoverRedispatch)
}

// runInterleaved processes events of all shards in one global
// (time, node) order. With an Observer every shard's clock advances in
// lockstep at every event so the Observer sees a globally consistent
// snapshot; otherwise only the event's shard advances (cross-shard
// reads during re-dispatch deliberately see raw un-synced Remaining,
// exactly as the single-heap engine did).
func (s *Sim) runInterleaved(target float64, drain bool) {
	lockstep := s.opts.Observer != nil
	for {
		evK, evOK := -1, false
		var ev finishEvent
		for k := range s.shards {
			e, ok := s.nextEvent(&s.shards[k])
			if ok && (!evOK || e.at < ev.at || (e.at == ev.at && e.node < ev.node)) {
				evK, ev, evOK = k, e, true
			}
		}
		if s.opts.Faults != nil {
			if bK, b, bOK := s.peekGlobalBoundary(); bOK && (drain || b.At <= target) &&
				(!evOK || b.At < ev.at || (!drain && ev.at > target)) {
				s.advanceInterleaved(bK, b.At, lockstep)
				s.applyBoundary(&s.shards[bK], b)
				continue
			}
		}
		if !evOK || (!drain && ev.at > target) {
			break
		}
		s.shards[evK].popEvent()
		s.advanceInterleaved(evK, ev.at, lockstep)
		s.handleFinish(ev.node)
	}
	if !drain {
		for k := range s.shards {
			s.advanceShard(&s.shards[k], target)
		}
	}
}

// advanceInterleaved advances shard k (or, in lockstep, every shard)
// to the next global event instant and tracks the global clock, which
// re-dispatch decisions read.
func (s *Sim) advanceInterleaved(k int, to float64, lockstep bool) {
	if lockstep {
		for i := range s.shards {
			s.advanceShard(&s.shards[i], to)
		}
	} else {
		s.advanceShard(&s.shards[k], to)
	}
	s.now = to
}

// Drain runs the engine until no tasks remain active. It returns a
// *StuckError when tasks can no longer progress (a permanently lost
// leaf under RecoverHold), a *InternalError when an engine invariant
// or — with Instrument and RecordSlices set — the schedule audit
// fails, and nil on a clean drain.
func (s *Sim) Drain() (err error) {
	defer recoverInternal(&err)
	if s.interleavedMode() {
		s.runInterleaved(0, true)
	} else {
		for k := range s.shards {
			s.drainShard(k)
		}
	}
	return s.finishDrain()
}

// finishDrain aligns every shard at the common end time (the maximum
// shard clock, in shard-index order so the alignment is deterministic)
// and performs the end-of-run checks.
func (s *Sim) finishDrain() error {
	end := s.now
	for k := range s.shards {
		if s.shards[k].now > end {
			end = s.shards[k].now
		}
	}
	for k := range s.shards {
		s.advanceShard(&s.shards[k], end)
	}
	s.now = end
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

// peekGlobalBoundary returns the earliest unapplied boundary across
// all shards in the global (time, node) order, with its shard index.
func (s *Sim) peekGlobalBoundary() (int, faults.Boundary, bool) {
	bK, bOK := -1, false
	var best faults.Boundary
	for k := range s.shards {
		b, ok := s.shards[k].peekBoundary()
		if ok && (!bOK || b.At < best.At || (b.At == best.At && b.Node < best.Node)) {
			bK, best, bOK = k, b, true
		}
	}
	return bK, best, bOK
}

// applyDueBoundaries applies boundaries at or before the current time
// (Inject's guard; AdvanceTo handles them during time travel).
func (s *Sim) applyDueBoundaries() {
	for {
		k, b, ok := s.peekGlobalBoundary()
		if !ok || b.At > s.now {
			return
		}
		s.applyBoundary(&s.shards[k], b)
	}
}

// applyBoundary installs node b.Node's new fault-scaled speed; the
// shard clock must already stand at b.At (or at the injection instant
// for boundaries applied by Inject's guard). The node is synced under
// the old speed first, then the finish event is reissued since its
// deadline scales with the speed. A permanent leaf loss triggers the
// recovery policy.
func (s *Sim) applyBoundary(sh *shardState, b faults.Boundary) {
	sh.faultIdx++
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
// lost), and the move is recorded as a Migration. Migration can cross
// shards, which is why deaths under RecoverRedispatch switch the engine
// to the global-order loop: the destination shard's clock is brought
// up to the migration instant here (its earlier events were already
// processed by that loop).
func (s *Sim) migrate(js *JobState, to tree.NodeID) {
	cur := js.CurrentNode()
	n := &s.nodes[cur]
	src := &s.shards[n.shard]
	now := src.now
	dst := &s.shards[s.shardOf[to]]
	s.advanceShard(dst, now)
	s.sync(cur)
	// The fractional-flow sum returns to a full remaining fraction
	// once the task restarts.
	frac := 1.0
	if js.Hop == len(js.Path)-1 {
		frac = js.Remaining / js.OrigOnCur
	}
	if src == dst {
		src.fracSum += js.FracWeight * (1 - frac)
	} else {
		src.fracSum -= js.FracWeight * frac
		dst.fracSum += js.FracWeight
		src.activeTasks--
		dst.activeTasks++
	}
	s.availRemove(cur, js)
	if n.running == js {
		n.running = nil
		n.finishSeq++
		if n.leaf {
			src.fracRate -= n.fracContrib
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
	src.mergeFloor = len(src.slices)
	dst.mergeFloor = len(dst.slices)
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
	sh := &s.shards[n.shard]
	now := sh.now
	js := n.running
	if js == nil {
		panic(s.internalErr("handleFinish", "finish event on idle node %d", v))
	}
	s.syncNode(n)
	if s.opts.SelfCheck && js.Remaining > 1e-6 {
		panic(s.internalErr("handleFinish", "task %d finished on node %d with %v remaining", js.ID, v, js.Remaining))
	}
	js.Remaining = 0
	sh.eventCount++

	s.availRemove(v, js)
	n.running = nil
	n.finishSeq++
	if n.leaf {
		sh.fracRate -= n.fracContrib
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
		sh.activeTasks--
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
		if st.sink != nil && st.sinkErr == nil {
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
func (s *Sim) Active() int {
	active := 0
	for k := range s.shards {
		active += s.shards[k].activeTasks
	}
	return active
}

// Slices returns the exact processing record (requires
// Options.RecordSlices). Slices are grouped by shard (root-child
// subtree, in root-adjacent order) and within each shard appear in the
// order work was performed; consecutive slices of one task on one node
// are merged. With a single root branch this is plain time order. The
// returned slice is an engine-owned buffer reused by the next call
// after a Reset; copy it to retain.
func (s *Sim) Slices() []Slice {
	if !s.opts.RecordSlices {
		panic("sim: Slices requires Options.RecordSlices")
	}
	s.sliceCat = s.sliceCat[:0]
	for k := range s.shards {
		s.sliceCat = append(s.sliceCat, s.shards[k].slices...)
	}
	return s.sliceCat
}

// ShardSlices returns shard k's processing record only (requires
// Options.RecordSlices) — the per-shard view the auditor can verify
// independently. Live engine state: read-only for callers.
func (s *Sim) ShardSlices(k int) []Slice {
	if !s.opts.RecordSlices {
		panic("sim: ShardSlices requires Options.RecordSlices")
	}
	return s.shards[k].slices
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
// engine state: read-only for callers.
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

// totals sums the per-shard running totals in shard-index order, which
// fixes the floating-point result.
func (s *Sim) totals() (fracFlow, activeIntegral float64, events int64) {
	for k := range s.shards {
		sh := &s.shards[k]
		fracFlow += sh.fracIntegral
		activeIntegral += sh.activeIntegral
		events += sh.eventCount
	}
	return fracFlow, activeIntegral, events
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
// node's shard time.
func (s *Sim) NodeUtilization(v tree.NodeID) (busy, work float64) {
	// Report includes the running task's progress up to now.
	n := &s.nodes[v]
	busy, work = n.busyTime, n.workDone
	if n.running != nil && n.speed > 0 {
		dt := s.shards[n.shard].now - n.lastSync
		done := math.Min(dt*n.speed, n.running.Remaining)
		busy += dt
		work += done
	}
	return busy, work
}

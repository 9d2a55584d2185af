package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"treesched/internal/faults"
	"treesched/internal/tree"
)

// The schedule-conformance auditor replays a recorded slice log and
// independently re-verifies the paper's model constraints:
//
//   - overlap: a node processes at most one task at any instant,
//   - precedence: store-and-forward — a task's work on a node may only
//     start after the full size was delivered by every ancestor hop,
//   - speed-budget: no node is credited more work over a window than
//     base speed × ∫ fault-factor dt allows for the task's requirement,
//   - release: no work before the task's release (immediate dispatch
//     is enforced structurally at injection, so work preceding release
//     is the observable breach),
//   - migration / non-migration: work must stay on the recorded path;
//     a change of leaf is legal only at a recorded recovery Migration,
//   - completion: a completed task's final journey carries the full
//     per-hop requirement and its last slice ends at the completion.
//
// The auditor shares no state with the event loop beyond the records
// themselves, so a bookkeeping bug in the engine surfaces here as a
// structured violation instead of silently skewing metrics.

// auditTol is the relative tolerance for audited comparisons; slice
// endpoints are computed with a different operation order than the
// engine's incremental sync, so the last few ulps differ.
func auditTol(x float64) float64 { return 1e-6 * math.Max(1, math.Abs(x)) }

// Violation is one audited constraint breach.
type Violation struct {
	// Rule is the violated constraint: overlap, precedence, off-path,
	// speed-budget, release, completion, migration, unknown-task or
	// malformed.
	Rule   string
	Node   tree.NodeID
	Job    int
	Seq    int64
	At     float64
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%.6g node=%d job=%d seq=%d: %s", v.Rule, v.At, v.Node, v.Job, v.Seq, v.Detail)
}

// AuditReport is the auditor's structured result.
type AuditReport struct {
	Slices     int
	Tasks      int
	Violations []Violation
}

// OK reports whether the audited schedule satisfied every constraint.
func (r *AuditReport) OK() bool { return len(r.Violations) == 0 }

// Summary renders the report as a short human-readable diagnostic.
func (r *AuditReport) Summary() string {
	if r.OK() {
		return fmt.Sprintf("audit OK: %d slice(s) over %d task(s)", r.Slices, r.Tasks)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d violation(s) in %d slice(s) over %d task(s)", len(r.Violations), r.Slices, r.Tasks)
	const show = 8
	for i, v := range r.Violations {
		if i == show {
			fmt.Fprintf(&b, "\n  ... and %d more", len(r.Violations)-show)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

func (r *AuditReport) add(v Violation) { r.Violations = append(r.Violations, v) }

// AuditError carries a failed audit through Drain's error return.
type AuditError struct {
	Report *AuditReport
}

func (e *AuditError) Error() string {
	return "sim: schedule audit failed: " + e.Report.Summary()
}

// Audit verifies the engine's own recorded slice log. It requires
// Options.RecordSlices and a non-PS policy (processor sharing has no
// discrete slices to audit).
func (s *Sim) Audit() *AuditReport {
	if !s.opts.RecordSlices || s.ps {
		panic("sim: Audit requires Options.RecordSlices and a non-PS policy")
	}
	return s.AuditSlices(s.Slices())
}

// AuditShard verifies shard k's slice log against the tasks assigned
// into shard k only — the per-shard view that needs no cross-shard
// state, mirroring the engine's root decomposition. It requires
// Options.RecordSlices, a non-PS policy, and a migration-free run: a
// recovery migration moves work between shards, so only the whole-run
// audit is defined then.
func (s *Sim) AuditShard(k int) *AuditReport {
	if !s.opts.RecordSlices || s.ps {
		panic("sim: AuditShard requires Options.RecordSlices and a non-PS policy")
	}
	if len(s.migrations) > 0 {
		panic("sim: AuditShard is undefined across recovery migrations; audit the full run")
	}
	slices := s.shards[k].slices
	var tasks []*JobState
	for _, js := range s.tasks {
		if int(s.shardOf[js.Leaf]) == k {
			tasks = append(tasks, js)
		}
	}
	rep := &AuditReport{Slices: len(slices), Tasks: len(tasks)}
	credits := s.auditPerNode(slices, rep)
	s.auditPerTask(slices, credits, tasks, rep)
	return rep
}

// AuditSlices verifies an arbitrary slice log against this engine's
// tasks, topology, fault schedule and migration record — the log need
// not be the engine's own (tests feed deliberately corrupted copies).
func (s *Sim) AuditSlices(slices []Slice) *AuditReport {
	rep := &AuditReport{Slices: len(slices), Tasks: len(s.tasks)}
	credits := s.auditPerNode(slices, rep)
	s.auditPerTask(slices, credits, s.tasks, rep)
	return rep
}

// auditPerNode checks slice well-formedness and the ≤1-task-per-node
// exclusivity constraint, and — because each node's slices are sorted
// by start time here anyway — computes every slice's work credit
// (base speed × fault-factor integral) in the same pass with a
// monotone cursor into the node's fault segments. This replaces the
// per-slice rescan of the full segment list the per-task audit used
// to do, which was quadratic on long faulty traces. The returned
// credits are indexed by the slice's position in `slices`.
func (s *Sim) auditPerNode(slices []Slice, rep *AuditReport) []float64 {
	credits := make([]float64, len(slices))
	perNode := make([][]int32, s.tree.NumNodes())
	for i, sl := range slices {
		if int(sl.Node) <= 0 || int(sl.Node) >= s.tree.NumNodes() {
			rep.add(Violation{Rule: "malformed", Node: sl.Node, Job: sl.Job, Seq: sl.Seq, At: sl.From,
				Detail: fmt.Sprintf("slice on unknown node %d", sl.Node)})
			continue
		}
		if !(sl.To > sl.From) {
			rep.add(Violation{Rule: "malformed", Node: sl.Node, Job: sl.Job, Seq: sl.Seq, At: sl.From,
				Detail: fmt.Sprintf("empty or reversed slice [%.6g,%.6g]", sl.From, sl.To)})
			continue
		}
		perNode[sl.Node] = append(perNode[sl.Node], int32(i))
	}
	fs := s.opts.Faults
	for v := range perNode {
		lst := perNode[v]
		if len(lst) == 0 {
			continue
		}
		sort.Slice(lst, func(i, j int) bool {
			a, b := slices[lst[i]], slices[lst[j]]
			if a.From != b.From {
				return a.From < b.From
			}
			return a.To < b.To
		})
		base := s.nodes[v].baseSpeed
		var segs []faults.Segment
		if fs != nil {
			segs = fs.Segments(tree.NodeID(v))
		}
		seg := 0
		for i, idx := range lst {
			cur := slices[idx]
			if i > 0 {
				prev := slices[lst[i-1]]
				if cur.From < prev.To-auditTol(prev.To) {
					rep.add(Violation{Rule: "overlap", Node: cur.Node, Job: cur.Job, Seq: cur.Seq, At: cur.From,
						Detail: fmt.Sprintf("tasks %d and %d overlap on node %d: [%.6g,%.6g] vs [%.6g,%.6g]",
							prev.Seq, cur.Seq, cur.Node, prev.From, prev.To, cur.From, cur.To)})
				}
			}
			if segs == nil {
				credits[idx] = base * (cur.To - cur.From)
				continue
			}
			// Slices are sorted by From, so the last segment starting at
			// or before From only moves forward; the summation below is
			// operation-for-operation the one faults.Integral performs,
			// keeping audited credits bit-identical to the rescan.
			for seg+1 < len(segs) && segs[seg+1].Start <= cur.From {
				seg++
			}
			var sum float64
			for j := seg; j < len(segs); j++ {
				sg := segs[j]
				if sg.Start >= cur.To {
					break
				}
				end := math.Inf(1)
				if j+1 < len(segs) {
					end = segs[j+1].Start
				}
				lo, hi := math.Max(cur.From, sg.Start), math.Min(cur.To, end)
				if hi > lo {
					sum += sg.Factor * (hi - lo)
				}
			}
			credits[idx] = base * sum
		}
	}
	return credits
}

// journey is one leg of a task's life: the path it followed and its
// leaf requirement there, until endsAt (a recovery re-dispatch) or
// forever for the final leg.
type journey struct {
	path     []tree.NodeID
	leafWork float64
	endsAt   float64
}

func (s *Sim) auditPerTask(slices []Slice, credits []float64, tasks []*JobState, rep *AuditReport) {
	taskBySeq := make(map[int64]*JobState, len(tasks))
	for _, js := range tasks {
		if js == nil {
			continue
		}
		taskBySeq[js.seq] = js
	}
	migsBySeq := make(map[int64][]Migration)
	for _, m := range s.migrations {
		migsBySeq[m.Seq] = append(migsBySeq[m.Seq], m)
	}
	bySeq := make(map[int64][]int32)
	unknown := make(map[int64]bool)
	for i, sl := range slices {
		if _, ok := taskBySeq[sl.Seq]; !ok {
			if !unknown[sl.Seq] {
				unknown[sl.Seq] = true
				rep.add(Violation{Rule: "unknown-task", Node: sl.Node, Job: sl.Job, Seq: sl.Seq, At: sl.From,
					Detail: fmt.Sprintf("slice for task seq %d which was never injected", sl.Seq)})
			}
			continue
		}
		bySeq[sl.Seq] = append(bySeq[sl.Seq], int32(i))
	}
	// Iterate tasks in injection order for a deterministic report.
	for _, js := range tasks {
		if js == nil {
			continue
		}
		s.auditTask(js, slices, bySeq[js.seq], credits, migsBySeq[js.seq], rep)
	}
}

// auditTask replays one task's slices (given as indices into the full
// log) against its journeys; work credits were precomputed by
// auditPerNode.
func (s *Sim) auditTask(js *JobState, all []Slice, idxs []int32, taskCredits []float64, migs []Migration, rep *AuditReport) {
	sort.Slice(idxs, func(i, j int) bool {
		a, b := all[idxs[i]], all[idxs[j]]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.Node < b.Node
	})
	// Migrations arrive in time order; each one closes a journey whose
	// path and leaf requirement it recorded.
	journeys := make([]journey, 0, len(migs)+1)
	for _, m := range migs {
		journeys = append(journeys, journey{path: m.OldPath, leafWork: m.OldLeafWork, endsAt: m.At})
	}
	journeys = append(journeys, journey{path: js.Path, leafWork: js.LeafWork, endsAt: math.Inf(1)})
	sizeOn := func(j journey, h int) float64 {
		if h == len(j.path)-1 {
			return j.leafWork
		}
		return js.RouterSize
	}

	jIdx, hop := 0, 0
	credited := make([]float64, len(journeys[0].path))
	lastTo := js.Release
	for _, idx := range idxs {
		sl := all[idx]
		if !(sl.To > sl.From) {
			continue // already reported as malformed
		}
		if sl.From < js.Release-auditTol(js.Release) {
			rep.add(Violation{Rule: "release", Node: sl.Node, Job: js.ID, Seq: js.seq, At: sl.From,
				Detail: fmt.Sprintf("work starts at %.6g before release %.6g", sl.From, js.Release)})
		}
		for jIdx < len(journeys)-1 && sl.From >= journeys[jIdx].endsAt {
			jIdx++
			hop = 0
			credited = make([]float64, len(journeys[jIdx].path))
		}
		j := journeys[jIdx]
		if sl.To > j.endsAt+auditTol(j.endsAt) {
			rep.add(Violation{Rule: "migration", Node: sl.Node, Job: js.ID, Seq: js.seq, At: sl.From,
				Detail: fmt.Sprintf("slice [%.6g,%.6g] extends past the re-dispatch at %.6g", sl.From, sl.To, j.endsAt)})
		}
		h := -1
		for i := hop; i < len(j.path); i++ {
			if j.path[i] == sl.Node {
				h = i
				break
			}
		}
		if h < 0 {
			rule, detail := "off-path", fmt.Sprintf("work on node %d which is not on the task's path", sl.Node)
			for i := 0; i < hop; i++ {
				if j.path[i] == sl.Node {
					rule = "precedence"
					detail = fmt.Sprintf("work on node %d (hop %d) after the task advanced to hop %d", sl.Node, i, hop)
					break
				}
			}
			rep.add(Violation{Rule: rule, Node: sl.Node, Job: js.ID, Seq: js.seq, At: sl.From, Detail: detail})
			continue
		}
		if h > hop {
			// Store-and-forward: advancing to a deeper hop requires the
			// full size delivered on every hop above it...
			for i := hop; i < h; i++ {
				want := sizeOn(j, i)
				if credited[i] < want-auditTol(want) {
					rep.add(Violation{Rule: "precedence", Node: sl.Node, Job: js.ID, Seq: js.seq, At: sl.From,
						Detail: fmt.Sprintf("node %d starts with only %.6g of %.6g done on ancestor node %d",
							sl.Node, credited[i], want, j.path[i])})
				}
			}
			// ...and the child cannot start before the parent's last
			// recorded instant of work.
			if sl.From < lastTo-auditTol(lastTo) {
				rep.add(Violation{Rule: "precedence", Node: sl.Node, Job: js.ID, Seq: js.seq, At: sl.From,
					Detail: fmt.Sprintf("node %d starts at %.6g before its ancestor finished at %.6g", sl.Node, sl.From, lastTo)})
			}
			hop = h
		}
		credited[hop] += taskCredits[idx]
		if want := sizeOn(j, hop); credited[hop] > want+auditTol(want) {
			rep.add(Violation{Rule: "speed-budget", Node: sl.Node, Job: js.ID, Seq: js.seq, At: sl.To,
				Detail: fmt.Sprintf("node %d credited %.6g of a %.6g requirement (exceeds the node's speed budget)",
					sl.Node, credited[hop], want)})
		}
		if sl.To > lastTo {
			lastTo = sl.To
		}
	}
	if !js.Completed {
		return
	}
	final := journeys[len(journeys)-1]
	if jIdx != len(journeys)-1 {
		rep.add(Violation{Rule: "completion", Node: js.Leaf, Job: js.ID, Seq: js.seq, At: js.Completion,
			Detail: "completed task has no recorded work on its final path"})
		return
	}
	for i, v := range final.path {
		want := sizeOn(final, i)
		if credited[i] < want-auditTol(want) {
			rep.add(Violation{Rule: "completion", Node: v, Job: js.ID, Seq: js.seq, At: js.Completion,
				Detail: fmt.Sprintf("completed with only %.6g of %.6g credited on node %d", credited[i], want, v)})
		}
	}
	if math.Abs(lastTo-js.Completion) > auditTol(js.Completion) {
		rep.add(Violation{Rule: "completion", Node: js.Leaf, Job: js.ID, Seq: js.seq, At: js.Completion,
			Detail: fmt.Sprintf("last recorded work ends at %.6g but completion is %.6g", lastTo, js.Completion)})
	}
}

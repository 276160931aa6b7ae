package wq

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"lfm/internal/alloc"
)

// Matcher selects the implementation of the master's task-to-worker
// matching loop. Both produce identical placement decisions — the indexed
// matcher is an exact optimization of the scan, proven by the differential
// tests — and differ only in how much work a scheduling round does.
type Matcher int

const (
	// MatcherIndexed (the default) matches through incrementally-maintained
	// indexes: a ready-task heap, a per-policy worker-capacity treap, a
	// per-cache-set affinity treap, and a dirty-worker set that lets a round
	// skip blocked tasks whose requirements cannot newly fit anywhere. Each
	// round costs O(placements x log W) instead of O(queue x W). It requires
	// the allocation strategy's Next to be a pure function of the state
	// mutated by Observe (true for all strategies in alloc).
	MatcherIndexed Matcher = iota
	// MatcherScan is the original O(queue x workers) linear scan, kept as
	// the oracle for differential testing and as a fallback for strategies
	// that violate the purity contract above.
	MatcherScan
)

// String names the matcher.
func (mt Matcher) String() string {
	switch mt {
	case MatcherIndexed:
		return "indexed"
	case MatcherScan:
		return "scan"
	}
	return fmt.Sprintf("matcher(%d)", int(mt))
}

// SchedStats measures the matching loop's work. Both matchers fill the
// actual columns; the Scan* columns hold what the linear scan would have
// cost for the same rounds — measured directly under MatcherScan, computed
// exactly (queue length x pool size per round) under MatcherIndexed, since
// both matchers run the same rounds over the same queues.
type SchedStats struct {
	// Passes counts scheduling rounds (coalesced dispatch events).
	Passes int64
	// TasksExamined counts tasks for which a worker search ran.
	TasksExamined int64
	// CandidatesExamined counts workers tested for fit across all searches.
	CandidatesExamined int64
	// BlockedWakes counts blocked tasks re-examined because a dirty worker
	// could newly fit them (indexed matcher only).
	BlockedWakes int64
	// ScanTasksExamined and ScanCandidatesExamined are the linear scan's
	// costs for the same rounds: every queued task, times every worker.
	ScanTasksExamined      int64
	ScanCandidatesExamined int64
	// ElapsedNanos is wall-clock time spent inside scheduling rounds.
	ElapsedNanos int64
}

// SchedStats returns a snapshot of the matching loop's work counters.
func (m *Master) SchedStats() *SchedStats {
	s := m.schedStats
	return &s
}

// orderKey is the scheduling order of a ready task: higher priority first,
// then first-ready first. The key must not change while the task is queued,
// which is why Task.Priority is frozen after Submit.
func (t *Task) orderKey() tkey {
	return tkey{a: -float64(t.Priority), c: t.readySeq}
}

// readyHeap is a min-heap of ready tasks by orderKey, implementing
// container/heap.Interface.
type readyHeap []*Task

func (h readyHeap) Len() int            { return len(h) }
func (h readyHeap) Less(i, j int) bool  { return h[i].orderKey().less(h[j].orderKey()) }
func (h readyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x interface{}) { *h = append(*h, x.(*Task)) }
func (h *readyHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	t := old[n]
	old[n] = nil
	*h = old[:n]
	return t
}

// workerMeta is the indexed matcher's per-worker bookkeeping. It hangs
// directly off the Worker (Worker.smeta) rather than in a side map: the
// dirty-worker fit gate reads it on every blocked-category check, and a map
// lookup there dominated scheduling CPU at scale.
type workerMeta struct {
	// joinSeq is the worker's join order, the tie-breaker first-fit and
	// cache-affinity inherit from the scan's iteration order.
	joinSeq int64
	// indexed is true while the worker is present in the indexes (alive and
	// not quarantined; a crashed-but-unsuspected worker stays in, exactly as
	// the scan keeps placing on it until suspicion fires).
	indexed bool
	// dirty marks the worker as having gained capacity (or joined) since the
	// last round, making it a candidate for unblocking blocked tasks.
	dirty bool
}

// workerIndex is one ordered worker set: a treap plus a handle map so
// removal can reproduce the exact stored key.
type workerIndex struct {
	tr    treap
	nodes map[*Worker]*tnode
}

func newWorkerIndex() *workerIndex {
	return &workerIndex{nodes: make(map[*Worker]*tnode)}
}

func (ix *workerIndex) insert(w *Worker, k tkey) {
	free := w.free()
	n := &tnode{key: k, w: w, v1: free.Cores, v2: free.MemoryMB, v3: free.DiskMB, vi: w.running}
	ix.tr.insert(n)
	ix.nodes[w] = n
}

func (ix *workerIndex) remove(w *Worker) {
	n := ix.nodes[w]
	if n == nil {
		return
	}
	ix.tr.remove(n.key)
	delete(ix.nodes, w)
}

// affinityIndex orders the pool for one cache set (the sorted cacheable
// input names of a task): by cached bytes of the set descending, then free
// cores descending, then join order — the scan's cache-affinity argmax as a
// leftmost lookup.
type affinityIndex struct {
	key     string
	files   map[string]int64 // name -> bytes the set attributes to it
	ix      *workerIndex
	lastUse int64
}

// maxAffinityIndexes caps live per-cache-set indexes; beyond it the
// least-recently-used index is dropped and rebuilt on demand.
const maxAffinityIndexes = 32

// blockedEntry is one ready task the last rounds could not place, parked
// under its category until some worker plausibly fits it again.
type blockedEntry struct {
	t *Task
	// dec is the allocation the task was blocked under. For unpinned
	// entries it always equals the category's shared decision; pinned
	// entries (retry allocations) carry their own.
	dec    alloc.Decision
	pinned bool
}

// catBlocked holds one category's blocked tasks. Unpinned entries share one
// allocation decision (Next is a pure function of per-category state), so a
// strategy update re-checks one decision instead of every task; pinned
// entries carry per-task retry decisions and are checked individually.
type catBlocked struct {
	dec      alloc.Decision
	unpinned treap
	pinned   treap
}

// schedState is the indexed matcher (MatcherIndexed): the ready heap, the
// worker indexes, the blocked-task sets, and the dirty-worker set. See
// DESIGN.md §9 for the architecture and the equivalence argument.
type schedState struct {
	m *Master

	readyQ   readyHeap
	readySeq int64
	joinSeq  int64

	// cap is the single capacity index used by first/best/worst-fit;
	// cache-affinity uses per-cache-set aff indexes instead.
	cap     *workerIndex
	aff     map[string]*affinityIndex
	affList []*affinityIndex // creation order, for deterministic iteration
	clock   int64

	blocked  map[string]*catBlocked
	catOrder []string // first-blocked order, for deterministic iteration
	nblocked int

	// dirty lists workers flagged dirty since the last round (for the
	// end-of-round retire sweep); dirtyIx holds the same workers in a
	// capacity treap so the blocked-wake gate answers "does this decision
	// fit any dirty worker" in O(log dirty) instead of a linear scan —
	// a batched round can admit thousands of workers at one timestamp,
	// and the gate runs once per blocked category per placement.
	dirty   []*Worker
	dirtyIx *workerIndex
}

func newSchedState(m *Master) *schedState {
	s := &schedState{
		m:       m,
		aff:     make(map[string]*affinityIndex),
		blocked: make(map[string]*catBlocked),
		dirtyIx: newWorkerIndex(),
	}
	if m.Cfg.Placement != PlaceCacheAffinity {
		s.cap = newWorkerIndex()
	}
	return s
}

// capKey orders the capacity index so the configured policy's choice is the
// leftmost fitting entry. Ties break by join order for first-fit (the scan
// took the first fitting worker in join order) and by node ID for best- and
// worst-fit (see pick in placement.go).
func (s *schedState) capKey(w *Worker) tkey {
	switch s.m.Cfg.Placement {
	case PlaceBestFit:
		return tkey{a: w.free().Cores, c: int64(w.Node.ID)}
	case PlaceWorstFit:
		return tkey{a: -w.free().Cores, c: int64(w.Node.ID)}
	default: // PlaceFirstFit
		return tkey{c: w.smeta.joinSeq}
	}
}

// affKey orders one affinity index: cached bytes of the set descending,
// free cores descending, join order ascending. Cached bytes accumulate in
// an int64 (exact, order-independent) before conversion.
func (s *schedState) affKey(ai *affinityIndex, w *Worker) tkey {
	var cached int64
	for name, size := range ai.files {
		if w.cache[name] {
			cached += size
		}
	}
	return tkey{a: -float64(cached), b: -w.free().Cores, c: w.smeta.joinSeq}
}

// cacheSet extracts a task's cacheable input set: a canonical string key
// (sorted names) plus the byte weight per name. Non-cacheable inputs never
// enter worker caches, so they cannot contribute to cachedBytes and are
// excluded. Inputs are frozen at Submit, so the derivation is memoized on
// the task: affinity placement re-derives the set on every examination.
func cacheSet(t *Task) (string, map[string]int64) {
	if t.cacheMemo {
		return t.cacheKey, t.cacheFiles
	}
	key, files := cacheSetSlow(t)
	t.cacheKey, t.cacheFiles, t.cacheMemo = key, files, true
	return key, files
}

func cacheSetSlow(t *Task) (string, map[string]int64) {
	var names []string
	var files map[string]int64
	for _, f := range t.Inputs {
		if !f.Cacheable {
			continue
		}
		if files == nil {
			files = make(map[string]int64)
		}
		if _, dup := files[f.Name]; !dup {
			names = append(names, f.Name)
		}
		files[f.Name] += f.SizeBytes
	}
	sort.Strings(names)
	return strings.Join(names, "\x00"), files
}

// affinityFor returns (building on demand) the affinity index for the
// task's cache set.
func (s *schedState) affinityFor(t *Task) *affinityIndex {
	key, files := cacheSet(t)
	ai := s.aff[key]
	if ai == nil {
		if len(s.affList) >= maxAffinityIndexes {
			s.evictAffinity()
		}
		ai = &affinityIndex{key: key, files: files, ix: newWorkerIndex()}
		s.aff[key] = ai
		s.affList = append(s.affList, ai)
		for _, w := range s.m.workers {
			if mw := w.smeta; mw != nil && mw.indexed {
				ai.ix.insert(w, s.affKey(ai, w))
			}
		}
	}
	s.clock++
	ai.lastUse = s.clock
	return ai
}

// evictAffinity drops the least-recently-used affinity index. lastUse
// values are unique, so the victim is deterministic.
func (s *schedState) evictAffinity() {
	victim := -1
	for i, ai := range s.affList {
		if victim < 0 || ai.lastUse < s.affList[victim].lastUse {
			victim = i
		}
	}
	delete(s.aff, s.affList[victim].key)
	s.affList = append(s.affList[:victim], s.affList[victim+1:]...)
}

// taskReady queues a ready task, stamping its scheduling sequence number.
func (s *schedState) taskReady(t *Task) {
	t.readySeq = s.readySeq
	s.readySeq++
	heap.Push(&s.readyQ, t)
}

// workerJoined registers a new worker with the indexes.
func (s *schedState) workerJoined(w *Worker) {
	w.smeta = &workerMeta{joinSeq: s.joinSeq}
	s.joinSeq++
	s.admit(w)
}

// workerLeft removes a disconnected worker from the indexes for good.
func (s *schedState) workerLeft(w *Worker) {
	s.exclude(w)
	w.smeta = nil
}

// admit inserts a worker into every index and marks it dirty (it may newly
// fit blocked tasks). Used on join and when quarantine lifts.
func (s *schedState) admit(w *Worker) {
	mw := w.smeta
	if mw == nil || mw.indexed {
		return
	}
	mw.indexed = true
	if s.cap != nil {
		s.cap.insert(w, s.capKey(w))
	}
	for _, ai := range s.affList {
		ai.ix.insert(w, s.affKey(ai, w))
	}
	s.markDirty(w)
}

// exclude removes a worker from every index without forgetting it. Used on
// quarantine trips and as the first half of removal.
func (s *schedState) exclude(w *Worker) {
	mw := w.smeta
	if mw == nil || !mw.indexed {
		return
	}
	mw.indexed = false
	if s.cap != nil {
		s.cap.remove(w)
	}
	for _, ai := range s.affList {
		ai.ix.remove(w)
	}
	if mw.dirty {
		// A stale entry would keep the wake gate matching a gone worker;
		// the retire sweep tolerates the leftover slice entry.
		s.dirtyIx.remove(w)
		mw.dirty = false
	}
}

// markDirty records that a worker may newly fit blocked tasks.
func (s *schedState) markDirty(w *Worker) {
	mw := w.smeta
	if mw == nil || !mw.indexed || mw.dirty {
		return
	}
	mw.dirty = true
	s.dirty = append(s.dirty, w)
	s.dirtyIx.insert(w, tkey{c: mw.joinSeq})
}

// capacityChanged re-keys a worker after its free capacity moved. freed
// marks capacity releases, which additionally dirty the worker — an
// allocation can only shrink what fits, so it never wakes blocked tasks.
func (s *schedState) capacityChanged(w *Worker, freed bool) {
	mw := w.smeta
	if mw == nil || !mw.indexed {
		return
	}
	if s.cap != nil {
		s.cap.remove(w)
		s.cap.insert(w, s.capKey(w))
	}
	for _, ai := range s.affList {
		ai.ix.remove(w)
		ai.ix.insert(w, s.affKey(ai, w))
	}
	if mw.dirty {
		// Keep the dirty index's capacity values fresh: mid-round
		// placements consume a dirty worker's free capacity, and the wake
		// gate prunes on these aggregates.
		s.dirtyIx.remove(w)
		s.dirtyIx.insert(w, tkey{c: mw.joinSeq})
	} else if freed {
		s.markDirty(w)
	}
}

// cacheAdded re-keys a worker in the affinity indexes whose cache set
// contains the newly cached file. Cache contents never affect feasibility,
// only preference, so no worker turns dirty.
func (s *schedState) cacheAdded(w *Worker, f *File) {
	mw := w.smeta
	if mw == nil || !mw.indexed {
		return
	}
	for _, ai := range s.affList {
		if _, ok := ai.files[f.Name]; !ok {
			continue
		}
		ai.ix.remove(w)
		ai.ix.insert(w, s.affKey(ai, w))
	}
}

// strategyObserved re-checks a category's shared allocation decision after
// the strategy observed a report (or charged a retry). If the decision
// changed, every unpinned blocked entry of the category returns to the
// ready heap — at its original position — for re-examination under the new
// label at the next round. No round is scheduled here: the scan matcher
// also only re-examines blocked tasks at the next naturally-occurring
// round.
func (s *schedState) strategyObserved(cat string) {
	cb := s.blocked[cat]
	if cb == nil || cb.unpinned.len() == 0 {
		return
	}
	dec := s.m.Cfg.Strategy.Next(cat)
	if dec == cb.dec {
		return
	}
	for cb.unpinned.len() > 0 {
		n := cb.unpinned.min()
		cb.unpinned.remove(n.key)
		s.nblocked--
		heap.Push(&s.readyQ, n.be.t)
	}
}

// block parks a ready task that no worker currently fits.
func (s *schedState) block(t *Task, dec alloc.Decision) {
	cb := s.blocked[t.Category]
	if cb == nil {
		cb = &catBlocked{}
		s.blocked[t.Category] = cb
		s.catOrder = append(s.catOrder, t.Category)
	}
	e := &blockedEntry{t: t, dec: dec, pinned: t.retryNext != nil}
	n := &tnode{key: t.orderKey(), be: e}
	if e.pinned {
		// Pinned nodes carry their negated effective requirement as treap
		// values, so bestBlockedCandidate's scan can prune whole subtrees no
		// dirty worker could satisfy: max over a subtree of a negated
		// requirement is the negated minimum requirement.
		if dec.WholeNode {
			// Needs an idle worker, not resources: vi 0 flags it (minVi == 0
			// means "subtree holds a whole-node entry") and -Inf requirements
			// keep it from weakening the resource prune for its subtree.
			n.v1, n.v2, n.v3 = math.Inf(-1), math.Inf(-1), math.Inf(-1)
		} else {
			req := dec.Request
			if req.Cores <= 0 {
				req.Cores = 1 // mirror fitsOn's default
			}
			n.v1, n.v2, n.v3 = -req.Cores, -req.MemoryMB, -req.DiskMB
			n.vi = 1
		}
		cb.pinned.insert(n)
	} else {
		cb.dec = dec
		cb.unpinned.insert(n)
	}
	s.nblocked++
}

// unblock removes one blocked entry prior to re-examination.
func (s *schedState) unblock(cb *catBlocked, n *tnode) {
	if n.be.pinned {
		cb.pinned.remove(n.key)
	} else {
		cb.unpinned.remove(n.key)
	}
	s.nblocked--
}

// decFitsDirty reports whether the decision fits any dirty worker right
// now — the gate for waking blocked tasks. It searches the dirty-worker
// capacity treap, so the common negative answer costs one aggregate test
// at the root rather than a scan of the dirty set.
func (s *schedState) decFitsDirty(dec alloc.Decision) bool {
	if s.dirtyIx.tr.root == nil {
		return false
	}
	var may func(*tnode) bool
	if dec.WholeNode {
		may = func(n *tnode) bool { return n.minVi == 0 }
	} else {
		req := dec.Request
		if req.Cores <= 0 {
			req.Cores = 1
		}
		// Mirror Resources.Fits' epsilon so pruning never rejects a worker
		// the scan would accept.
		may = func(n *tnode) bool {
			return req.Cores <= n.maxV1+1e-9 && req.MemoryMB <= n.maxV2+1e-9 && req.DiskMB <= n.maxV3+1e-9
		}
	}
	m := s.m
	visits := 0
	return s.dirtyIx.tr.findFit(may, func(n *tnode) bool { return m.fitsOn(n.w, dec) }, &visits) != nil
}

// bestBlockedCandidate returns the scheduling-order-first blocked entry
// whose decision fits a dirty worker, or nil. A task it returns is
// guaranteed to place: the fitting dirty worker is indexed, so the
// subsequent full search at least finds it.
func (s *schedState) bestBlockedCandidate() (*catBlocked, *tnode) {
	root := s.dirtyIx.tr.root
	if root == nil || s.nblocked == 0 {
		return nil, nil
	}
	// Frontier of the dirty set, read off the dirty index's root aggregates:
	// per-dimension maximum free capacity, and whether any dirty worker sits
	// idle. Pinned entries store their negated effective requirement as
	// treap values (see block), so -maxV is a pinned subtree's minimum
	// requirement; a subtree whose minimum exceeds the frontier on some
	// dimension cannot fit any dirty worker (each dimension's max relaxes
	// "one worker fits all dimensions") and the scan prunes it wholesale.
	// Without this, every round rescanned every parked retry.
	dirtyIdle := root.minVi == 0
	may := func(n *tnode) bool {
		if dirtyIdle && n.minVi == 0 {
			return true
		}
		return -n.maxV1 <= root.maxV1+1e-9 &&
			-n.maxV2 <= root.maxV2+1e-9 &&
			-n.maxV3 <= root.maxV3+1e-9
	}
	var bestCb *catBlocked
	var best *tnode
	for _, cat := range s.catOrder {
		cb := s.blocked[cat]
		if cb.unpinned.len() > 0 && s.decFitsDirty(cb.dec) {
			if n := cb.unpinned.min(); best == nil || n.key.less(best.key) {
				best, bestCb = n, cb
			}
		}
		if cb.pinned.len() > 0 {
			visits := 0
			n := cb.pinned.findFit(may, func(n *tnode) bool { return s.decFitsDirty(n.be.dec) }, &visits)
			if n != nil && (best == nil || n.key.less(best.key)) {
				best, bestCb = n, cb
			}
		}
	}
	return bestCb, best
}

// selectWorker finds the placement-policy-first worker fitting the
// decision, excluding at most one worker (speculation avoids the
// straggler's own host). It returns the worker (nil if none fits) and the
// number of candidates tested for fit.
func (s *schedState) selectWorker(t *Task, dec alloc.Decision, exclude *Worker) (*Worker, int) {
	ix := s.cap
	if s.m.Cfg.Placement == PlaceCacheAffinity {
		ix = s.affinityFor(t).ix
	}
	var may func(*tnode) bool
	if dec.WholeNode {
		// A whole-node placement needs an idle worker; running counts are
		// integers, so the aggregate test is exact.
		may = func(n *tnode) bool { return n.minVi == 0 }
	} else {
		req := dec.Request
		if req.Cores <= 0 {
			req.Cores = 1
		}
		// Mirror Resources.Fits' epsilon so pruning never rejects a subtree
		// the scan would accept.
		may = func(n *tnode) bool {
			return req.Cores <= n.maxV1+1e-9 && req.MemoryMB <= n.maxV2+1e-9 && req.DiskMB <= n.maxV3+1e-9
		}
	}
	m := s.m
	ok := func(n *tnode) bool { return n.w != exclude && m.fitsOn(n.w, dec) }
	visits := 0
	found := ix.tr.findFit(may, ok, &visits)
	if found == nil {
		return nil, visits
	}
	return found.w, visits
}

// examine searches a worker for one task and either starts the attempt or
// blocks the task under the decision that failed to fit.
func (s *schedState) examine(t *Task) {
	m := s.m
	var dec alloc.Decision
	if t.retryNext != nil {
		dec = *t.retryNext
	} else {
		dec = m.Cfg.Strategy.Next(t.Category)
	}
	st := &m.schedStats
	st.TasksExamined++
	w, visits := s.selectWorker(t, dec, nil)
	st.CandidatesExamined += int64(visits)
	if w == nil {
		s.block(t, dec)
		return
	}
	t.retryNext = nil
	m.startAttempt(t, w, dec, false)
}

// schedulePassIndexed is one scheduling round of the indexed matcher: merge
// the ready heap with wakeable blocked entries in scheduling order, place
// or block each, then retire the dirty set. Capacity only shrinks inside a
// round (releases arrive as separate events), so a task blocked here stays
// unplaceable for the rest of the round.
func (m *Master) schedulePassIndexed() {
	s := m.sched
	start := time.Now()
	st := &m.schedStats
	st.Passes++
	candBefore := st.CandidatesExamined
	queued := int64(len(s.readyQ) + s.nblocked)
	st.ScanTasksExamined += queued
	st.ScanCandidatesExamined += queued * int64(len(m.workers))
	for {
		cb, bn := s.bestBlockedCandidate()
		if len(s.readyQ) > 0 {
			top := s.readyQ[0]
			if bn == nil || top.orderKey().less(bn.key) {
				s.examine(heap.Pop(&s.readyQ).(*Task))
				continue
			}
		}
		if bn == nil {
			break
		}
		s.unblock(cb, bn)
		st.BlockedWakes++
		s.examine(bn.be.t)
	}
	for _, w := range s.dirty {
		if mw := w.smeta; mw != nil && mw.dirty {
			mw.dirty = false
			s.dirtyIx.remove(w)
		}
	}
	s.dirty = s.dirty[:0]
	elapsed := time.Since(start)
	st.ElapsedNanos += elapsed.Nanoseconds()
	m.met.onSchedPass(st.CandidatesExamined-candBefore, elapsed)
}

// queueLen counts ready-but-unplaced tasks (queued plus blocked).
func (s *schedState) queueLen() int { return len(s.readyQ) + s.nblocked }

// check verifies every index against ground truth: membership (exactly the
// non-quarantined pool), keys and capacity values (recomputed from current
// worker state), treap aggregates, and blocked/ready task states. It backs
// CheckInvariants, which chaos runs call after every schedule.
func (s *schedState) check() error {
	m := s.m
	indexed := 0
	for _, w := range m.workers {
		mw := w.smeta
		if mw == nil {
			return fmt.Errorf("wq: worker %d has no scheduler meta", w.Node.ID)
		}
		if mw.indexed == w.quarantined {
			return fmt.Errorf("wq: worker %d indexed=%v but quarantined=%v", w.Node.ID, mw.indexed, w.quarantined)
		}
		if mw.indexed {
			indexed++
		}
	}
	checkIndex := func(name string, ix *workerIndex, key func(*Worker) tkey) error {
		if got := ix.tr.len(); got != indexed {
			return fmt.Errorf("wq: %s index holds %d workers, want %d", name, got, indexed)
		}
		if len(ix.nodes) != indexed {
			return fmt.Errorf("wq: %s handle map holds %d workers, want %d", name, len(ix.nodes), indexed)
		}
		var err error
		ix.tr.each(func(n *tnode) {
			if err != nil {
				return
			}
			w := n.w
			if mw := w.smeta; mw == nil || !mw.indexed {
				err = fmt.Errorf("wq: %s index holds unindexed worker %d", name, w.Node.ID)
				return
			}
			if ix.nodes[w] != n {
				err = fmt.Errorf("wq: %s handle for worker %d is stale", name, w.Node.ID)
				return
			}
			if want := key(w); n.key != want {
				err = fmt.Errorf("wq: %s key for worker %d is %v, want %v", name, w.Node.ID, n.key, want)
				return
			}
			free := w.free()
			if n.v1 != free.Cores || n.v2 != free.MemoryMB || n.v3 != free.DiskMB || n.vi != w.running {
				err = fmt.Errorf("wq: %s capacity for worker %d is stale", name, w.Node.ID)
			}
		})
		if err != nil {
			return err
		}
		return checkAggregates(name, ix.tr.root)
	}
	if s.cap != nil {
		if err := checkIndex("capacity", s.cap, s.capKey); err != nil {
			return err
		}
	}
	for _, ai := range s.affList {
		key := func(w *Worker) tkey { return s.affKey(ai, w) }
		if err := checkIndex(fmt.Sprintf("affinity[%q]", ai.key), ai.ix, key); err != nil {
			return err
		}
	}
	nblocked := 0
	for _, cat := range s.catOrder {
		cb := s.blocked[cat]
		var err error
		countStates := func(pinned bool) func(*tnode) {
			return func(n *tnode) {
				nblocked++
				if err != nil {
					return
				}
				e := n.be
				if e.pinned != pinned {
					err = fmt.Errorf("wq: blocked entry for task %d in wrong treap", e.t.ID)
					return
				}
				if e.t.State != TaskReady {
					err = fmt.Errorf("wq: blocked task %d in state %d, want ready", e.t.ID, e.t.State)
					return
				}
				if pinned {
					// Pinned nodes carry their negated effective requirement
					// for the bestBlockedCandidate prune.
					if e.dec.WholeNode {
						if !math.IsInf(n.v1, -1) || n.vi != 0 {
							err = fmt.Errorf("wq: whole-node blocked task %d has prune values (%v, vi=%d)", e.t.ID, n.v1, n.vi)
						}
						return
					}
					req := e.dec.Request
					if req.Cores <= 0 {
						req.Cores = 1
					}
					if n.v1 != -req.Cores || n.v2 != -req.MemoryMB || n.v3 != -req.DiskMB || n.vi != 1 {
						err = fmt.Errorf("wq: blocked task %d prune values stale", e.t.ID)
					}
				}
			}
		}
		cb.unpinned.each(countStates(false))
		cb.pinned.each(countStates(true))
		if err != nil {
			return err
		}
		if err := checkAggregates(fmt.Sprintf("blocked[%q] pinned", cat), cb.pinned.root); err != nil {
			return err
		}
	}
	if nblocked != s.nblocked {
		return fmt.Errorf("wq: blocked count %d but treaps hold %d", s.nblocked, nblocked)
	}
	for _, t := range s.readyQ {
		if t.State != TaskReady {
			return fmt.Errorf("wq: queued task %d in state %d, want ready", t.ID, t.State)
		}
	}
	// The dirty index must hold exactly the dirty workers, with fresh
	// capacity values (the wake gate prunes on its aggregates).
	ndirty := 0
	for _, w := range m.workers {
		if mw := w.smeta; mw != nil && mw.dirty {
			ndirty++
			n := s.dirtyIx.nodes[w]
			if n == nil {
				return fmt.Errorf("wq: dirty worker %d missing from dirty index", w.Node.ID)
			}
			free := w.free()
			if n.v1 != free.Cores || n.v2 != free.MemoryMB || n.v3 != free.DiskMB || n.vi != w.running {
				return fmt.Errorf("wq: dirty index capacity for worker %d is stale", w.Node.ID)
			}
		}
	}
	if got := s.dirtyIx.tr.len(); got != ndirty {
		return fmt.Errorf("wq: dirty index holds %d workers, want %d", got, ndirty)
	}
	if err := checkAggregates("dirty", s.dirtyIx.tr.root); err != nil {
		return err
	}
	return nil
}

// checkAggregates recomputes a subtree's aggregates bottom-up and compares
// them with the stored values.
func checkAggregates(name string, n *tnode) error {
	if n == nil {
		return nil
	}
	if err := checkAggregates(name, n.left); err != nil {
		return err
	}
	if err := checkAggregates(name, n.right); err != nil {
		return err
	}
	got := *n
	n.pull()
	if got.maxV1 != n.maxV1 || got.maxV2 != n.maxV2 || got.maxV3 != n.maxV3 ||
		got.minVi != n.minVi || got.size != n.size {
		return fmt.Errorf("wq: %s index aggregates stale at key %v", name, n.key)
	}
	return nil
}

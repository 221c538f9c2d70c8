package core

// The engine's persistence seam. The engine itself never touches the
// filesystem: a Store implementation (internal/store) receives every
// folded record for the append-only journal and periodic SessionState
// snapshots for crash recovery, and a Restore (built by the store from a
// prior journal + snapshot) is applied by NewEngine so a session
// continues exactly where the previous process stopped.
//
// What a snapshot holds, and what it costs. The similarity memory and
// the cluster sets export each distinct stack once; the executed-key sets
// (Aggregates.SeenKeys here, History/Seen in the explorer state) are
// views of append-only lists in fold/report order. Nothing in a snapshot
// is produced by walking a map of the session or sorting a copy of it:
// capturing costs O(clusters + explorer pool and windows) under the
// locks, assembling O(distinct stacks + covered blocks) outside them
// (sorting only the stacks remembered since the last snapshot),
// and the lists the state refers to are shared with the live session —
// they only ever grow past the captured length, so the store's writer
// can encode them while folding continues. The lists of a SessionState
// are therefore read-only to whoever receives it; the state itself is
// the receiver's. The store writes the cluster sets and the lists
// length-prefixed, apart from the JSON of the small rest — each distinct
// stack once for the three sets, a list that repeats another as a
// reference to it: writing is a copy, reading one pass.
//
// What coming back costs. The executed keys cross the layers as one
// explore.KeySet: the store decodes the snapshot's list into an arena and
// indexes it once with the tail's keys in Recover, Config.Seen hands it to
// the engine frozen, the novelty filter and every explorer history that
// repeats it read it, and the engine appends this run's folds after it
// in a list with no index — so SeenKeys of the next snapshot is fold
// order across every run, exactly what an uninterrupted session lists.
// Snapshot.Resume reports which way a session came back and what each
// step cost.
//
// Ordering contract: JournalRecord is called under the session lock, in
// fold order (folds can arrive from concurrent RPC goroutines; the lock
// is what serializes them). SnapshotSession is called outside the
// session lock — the engine captures a view of session state under the
// lock and assembles it afterwards, so ordering the stack memory never
// stalls folding — but calls remain serialized (on their
// own mutex), monotone in Seq (a snapshot overtaken by a newer one is
// dropped; latest wins), and each SnapshotSession(st) still happens
// only after every record with ID < st.Seq has been passed to
// JournalRecord, so a store that writes in call order can guarantee
// snapshot.Seq never runs ahead of the journal. Because JournalRecord
// extends the fold critical section and SnapshotSession may run
// concurrently with it, implementations must protect their queue and
// only enqueue — internal/store pushes onto a mutex-guarded in-memory
// queue and does all JSON encoding and file IO on a background writer
// goroutine.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"afex/internal/cluster"
	"afex/internal/explore"
)

// Store receives the engine's durable output. JournalRecord calls are
// serialized by the session lock; SnapshotSession calls are serialized
// by the engine's snapshot mutex but may interleave with JournalRecord,
// so implementations must protect their queue. They must never block on
// IO.
type Store interface {
	// JournalRecord is called once per folded test with the completed
	// record and the candidate that produced it (the candidate carries
	// mutation provenance the record does not).
	JournalRecord(c explore.Candidate, rec Record)
	// SnapshotSession is called every Config.SnapshotEvery folds and on
	// Finish with a consistent snapshot of the resumable session state.
	SnapshotSession(st *SessionState)
}

// SessionState is the compact snapshot complementing the journal: the
// parts of a session that would otherwise need replaying every executed
// record to rebuild (explorer fitness state, redundancy clusters,
// similarity memory) plus coverage counters for inspection. Records
// themselves live in the journal only.
type SessionState struct {
	// Seq is the number of records folded (and journaled) when the
	// snapshot was taken; everything the snapshot describes is a pure
	// function of journal entries [0, Seq).
	Seq int `json:"seq"`
	// Elapsed is the cumulative session wall clock across runs.
	Elapsed time.Duration `json:"elapsed"`
	// Covered and Recovered are the covered basic blocks (all, and
	// recovery-code ones), sorted.
	Covered   []int `json:"covered,omitempty"`
	Recovered []int `json:"recovered,omitempty"`
	// Explorer is the search state, when the session's explorer supports
	// export (fitness-guided and sharded do; the baselines are
	// stateless and resume via the novelty filter alone).
	Explorer *explore.State `json:"explorer,omitempty"`
	// AllStacks is the §7.4 similarity memory; FailClusters and
	// CrashClusters the redundancy clusters.
	AllStacks     *cluster.SetState `json:"allStacks,omitempty"`
	FailClusters  *cluster.SetState `json:"failClusters,omitempty"`
	CrashClusters *cluster.SetState `json:"crashClusters,omitempty"`
	// Aggregates summarizes the records the snapshot covers, making the
	// snapshot self-sufficient for counter restoration: a store can then
	// resume by materializing only the journal tail past Seq (O(snapshot
	// + tail)) instead of re-reading the whole journal. Absent in
	// snapshots written before this field existed — those resume via the
	// full-journal path.
	Aggregates *Aggregates `json:"aggregates,omitempty"`
}

// Aggregates are the result-set counters over journal entries [0, Seq)
// plus the scenario keys executed so far (the novelty-filter seed), in
// fold order, whichever runs folded them. Readers treat SeenKeys as a
// set and keep the order they are given; snapshots written before the
// order was kept list some or all of them sorted.
type Aggregates struct {
	Injected int            `json:"injected"`
	Failed   int            `json:"failed"`
	Crashed  int            `json:"crashed"`
	Hung     int            `json:"hung"`
	Holes    int            `json:"holes,omitempty"`
	CrashIDs map[string]int `json:"crashIDs,omitempty"`
	SeenKeys *explore.Keys  `json:"seenKeys,omitempty"`
}

// Restore is a recovered session handed to NewEngine via
// Config.Restore: the journaled records (always), the latest snapshot
// (when one was written), and the feedback for records the snapshot does
// not cover yet.
type Restore struct {
	// State is the most recent snapshot, or nil when the session crashed
	// before writing one — everything is then rebuilt from Records.
	State *SessionState
	// Base is the journal sequence Records starts at. Zero means the
	// full journal is materialized (the default). Non-zero means a tail
	// restore: Records holds only entries [Base, end), Base must equal
	// State.Seq, and State.Aggregates must be present — counters and
	// seen keys for [0, Base) come from it instead of from records.
	Base int
	// Records are the journaled records in execution order; their IDs
	// must equal Base + their indices.
	Records []Record
	// Tail is the explorer feedback for Records[State.Seq-Base:] (all
	// records when State is nil), replayed into the explorer so executed
	// points enter its history even though the snapshot predates them.
	Tail []explore.Feedback
	// Elapsed is the prior runs' cumulative wall clock.
	Elapsed time.Duration
	// Seen is the executed-key set of journal entries [0, Base +
	// len(Records)) in fold order, built once by the store: Config.Seen
	// of the resumed session.
	Seen *explore.KeySet
	// Info is the store's account of the recovery; the engine adds its
	// own restore time and reports it as Snapshot.Resume.
	Info ResumeInfo
}

// ResumeInfo says how a session was recovered — Path "tail" when only
// the Entries past the snapshot were read, "full-journal" with the
// Reason otherwise — and the wall clock of decoding the snapshot, of
// reading the journal, and of rebuilding engine and explorer from both.
type ResumeInfo struct {
	Path       string `json:"path"`
	Reason     string `json:"reason,omitempty"`
	Entries    int    `json:"entries"`
	SnapshotNS int64  `json:"snapshotNs"`
	JournalNS  int64  `json:"journalNs"`
	RestoreNS  int64  `json:"restoreNs"`
}

// String renders the info as `afex status` prints it.
func (r *ResumeInfo) String() string {
	return fmt.Sprintf("%s, %d entries; snapshot %.1fms journal %.1fms restore %.1fms", strings.TrimSpace(r.Path+" "+r.Reason),
		r.Entries, float64(r.SnapshotNS)/1e6, float64(r.JournalNS)/1e6, float64(r.RestoreNS)/1e6)
}

// applyRestore rebuilds the engine's session state from a recovered
// journal + snapshot. Counters and coverage are recomputed from the
// records (the journal is the single source of truth); cluster sets come
// from the snapshot with the tail re-added, or are rebuilt wholesale
// when no snapshot exists. Called from NewEngine before any lease, so no
// locking.
func (e *Engine) applyRestore(r *Restore) error {
	base := r.Base
	for i := range r.Records {
		if r.Records[i].ID != base+i {
			return fmt.Errorf("core: restore record %d has ID %d (journal out of order)", base+i, r.Records[i].ID)
		}
	}
	if base > 0 {
		// Tail restore: records [0, base) were not materialized, so the
		// snapshot must self-describe them.
		if r.State == nil || r.State.Aggregates == nil {
			return fmt.Errorf("core: tail restore from base %d without snapshot aggregates", base)
		}
		if r.State.Seq != base {
			return fmt.Errorf("core: tail restore base %d does not match snapshot seq %d", base, r.State.Seq)
		}
		ag := r.State.Aggregates
		e.res.Injected = ag.Injected
		e.res.Failed = ag.Failed
		e.res.Crashed = ag.Crashed
		e.res.Hung = ag.Hung
		e.res.Holes = ag.Holes
		for id, n := range ag.CrashIDs {
			e.res.CrashIDs[id] = n
		}
		// Coverage over [0, base) comes from the snapshot's block lists;
		// the tail's blocks merge in below.
		for _, b := range r.State.Covered {
			e.covered[b] = struct{}{}
		}
		for _, b := range r.State.Recovered {
			e.recovered[b] = struct{}{}
		}
	}
	seq := base
	if r.State != nil {
		seq = r.State.Seq
		if seq > base+len(r.Records) {
			return fmt.Errorf("core: snapshot covers %d records but journal has %d", seq, base+len(r.Records))
		}
		sets, i, err := cluster.NewSetsFromState(r.State.AllStacks, r.State.FailClusters, r.State.CrashClusters)
		if err != nil {
			return fmt.Errorf("core: restore %s: %w", [...]string{"similarity memory", "failure clusters", "crash clusters"}[i], err)
		}
		e.allStacks, e.failClusters, e.crashClusters = sets[0], sets[1], sets[2]
	}

	e.res.base = base
	e.res.Records = e.reserveRecords(r.Records)
	e.res.Executed = base + len(r.Records)
	for i := range e.res.Records {
		rec := &e.res.Records[i]
		out := rec.Outcome
		if rec.Skipped {
			e.res.Holes++
		}
		if out.Injected {
			e.res.Injected++
		}
		if out.Injected && out.Failed {
			e.res.Failed++
			if out.Crashed {
				e.res.Crashed++
				if out.CrashID != "" {
					e.res.CrashIDs[out.CrashID]++
				}
			}
			if out.Hung {
				e.res.Hung++
			}
		}
		for b := range out.Blocks {
			e.covered[b] = struct{}{}
			if _, isRec := e.recoverySet[b]; isRec {
				e.recovered[b] = struct{}{}
			}
		}
		// The snapshot's cluster sets cover records [0, seq); re-add the
		// tail in fold order, which reproduces the live clustering
		// exactly (Add is deterministic in insertion order).
		if rec.ID >= seq && out.Injected {
			e.allStacks.Add(rec.ID, out.InjectionStack)
			if out.Failed {
				e.failClusters.Add(rec.ID, out.InjectionStack)
				if out.Crashed {
					e.crashClusters.Add(rec.ID, out.InjectionStack)
				}
			}
		}
	}
	// Rebuild the append-only snapshot mirrors of the coverage maps
	// (order is irrelevant — snapshot assembly sorts a copy).
	e.coveredList = make([]int, 0, len(e.covered))
	for b := range e.covered {
		e.coveredList = append(e.coveredList, b)
	}
	e.recoveredList = make([]int, 0, len(e.recovered))
	for b := range e.recovered {
		e.recoveredList = append(e.recoveredList, b)
	}
	e.prevElapsed = r.Elapsed
	return nil
}

// restoreExplorer imports the snapshot's search state into ex and
// replays the tail feedback. It must run before the novelty filter
// wraps ex.
func restoreExplorer(ex explore.Explorer, r *Restore) error {
	if r.State != nil && r.State.Explorer != nil {
		if err := ex.ImportState(r.State.Explorer); err != nil {
			return fmt.Errorf("core: restore explorer: %w", err)
		}
	}
	explore.ReportBatch(ex, r.Tail)
	return nil
}

// sessionView is a consistent point-in-time capture of the resumable
// session state, taken in O(counters + #clusters) under e.mu and
// materialized into a SessionState outside it. The list fields are
// views into the engine's append-only mirrors (coveredList,
// recoveredList, the seen list) and the cluster sets' append-only logs: the
// captured slice headers pin the lengths, and no element behind them is
// ever mutated in place, so assembling — sorting the covered blocks and
// the distinct stacks — races with nothing even while folds continue.
type sessionView struct {
	seq           int
	elapsed       time.Duration
	covered       []int
	recovered     []int
	seenKeys      *explore.Keys
	allStacks     *cluster.SetView
	failClusters  *cluster.SetView
	crashClusters *cluster.SetView
	explorer      *explore.State
	injected      int
	failed        int
	crashed       int
	hung          int
	holes         int
	crashIDs      map[string]int
}

// sessionViewLocked captures a snapshot view; callers hold e.mu and
// hand the result to deliverSnapshot after unlocking.
func (e *Engine) sessionViewLocked() *sessionView {
	began := e.cfg.clock.Now()
	defer func() { e.snapshotNS.Add(int64(e.cfg.clock.Now().Sub(began))) }()
	v := &sessionView{
		seq:           e.res.Executed,
		elapsed:       e.prevElapsed + began.Sub(e.start),
		covered:       e.coveredList,
		recovered:     e.recoveredList,
		seenKeys:      e.seen.View(),
		allStacks:     e.allStacks.View(),
		failClusters:  e.failClusters.View(),
		crashClusters: e.crashClusters.View(),
		injected:      e.res.Injected,
		failed:        e.res.Failed,
		crashed:       e.res.Crashed,
		hung:          e.res.Hung,
		holes:         e.res.Holes,
	}
	// CrashIDs counts mutate in place, so the (small) map is copied here
	// rather than viewed. The explorer also mutates in place; exporting
	// its state stays under the lock, where it copies the arms, the
	// mutation pool and the sensitivity windows and takes its executed-key
	// lists as views (explore.KeySet) — nothing O(session).
	if len(e.res.CrashIDs) > 0 {
		v.crashIDs = make(map[string]int, len(e.res.CrashIDs))
		for id, n := range e.res.CrashIDs {
			v.crashIDs[id] = n
		}
	}
	e.exMu.Lock()
	v.explorer = e.explorer.ExportState()
	e.exMu.Unlock()
	return v
}

// assemble materializes the view as a serializable SessionState. No
// locks; see sessionView.
func (v *sessionView) assemble() *SessionState {
	return &SessionState{
		Seq:           v.seq,
		Elapsed:       v.elapsed,
		Covered:       sortedIntCopy(v.covered),
		Recovered:     sortedIntCopy(v.recovered),
		AllStacks:     v.allStacks.ExportState(),
		FailClusters:  v.failClusters.ExportState(),
		CrashClusters: v.crashClusters.ExportState(),
		Explorer:      v.explorer,
		Aggregates: &Aggregates{
			Injected: v.injected,
			Failed:   v.failed,
			Crashed:  v.crashed,
			Hung:     v.hung,
			Holes:    v.holes,
			CrashIDs: v.crashIDs,
			SeenKeys: v.seenKeys,
		},
	}
}

// deliverSnapshot serializes a captured view and hands it to the store,
// outside the session lock. Delivery is serialized and monotone in Seq:
// with concurrent fold batches, a view that waited while a newer one
// was delivered is dropped — the store only ever needs the most recent
// snapshot, and dropping keeps Seq ordered so a store writing in call
// order never runs a snapshot ahead of its journal records.
func (e *Engine) deliverSnapshot(v *sessionView) {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if v.seq < e.snapSeq {
		return
	}
	e.snapSeq = v.seq
	began := e.cfg.clock.Now()
	e.cfg.Store.SnapshotSession(v.assemble())
	e.snapshots.Add(1)
	e.snapshotNS.Add(int64(e.cfg.clock.Now().Sub(began)))
}

func sortedIntCopy(s []int) []int {
	out := make([]int, 0, len(s))
	out = append(out, s...)
	sort.Ints(out)
	return out
}

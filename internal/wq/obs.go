package wq

import "lfm/internal/obs"

// SetObs attaches a snapshot bus. The bus reads the master's own books
// each time it seals a boundary, between two timestamps; the master pushes
// only the placement and completion latencies, which nothing else keeps.
// Recording is strictly passive: no events are scheduled and no decision
// path reads the bus, so an obs-enabled run places, traces, and completes
// byte-identically to a bare one. Attach before workers join or tasks
// submit; a nil bus detaches.
func (m *Master) SetObs(b *obs.Bus) {
	m.obs = b
	if b == nil {
		return
	}
	b.SetTruth(func() obs.Truth {
		st := &m.schedStats
		t := obs.Truth{
			QueueDepth:     m.QueueLen(),
			WorkersAlive:   len(m.workers),
			PoolCores:      m.poolCores,
			AllocatedCores: m.poolUsedCores,
			Submitted:      m.stats.Submitted,
			Completed:      m.stats.Completed,
			Failed:         m.stats.Failed,
			Retries:        m.stats.Retries,
			Sched: obs.SchedDelta{
				Passes: st.Passes, Tasks: st.TasksExamined,
				Candidates: st.CandidatesExamined, Wakes: st.BlockedWakes,
			},
		}
		if rs := m.stats.Resilience; rs != nil {
			t.QuarantineTrips = rs.Quarantines
		}
		if m.sched != nil {
			t.Blocked = m.sched.nblocked
		}
		for _, w := range m.workers {
			if w.quarantined {
				t.WorkersQuarantined++
			}
			for _, a := range w.attempts {
				if a.speculative {
					t.Speculating++
				} else {
					t.Running++
				}
			}
		}
		return t
	})
}

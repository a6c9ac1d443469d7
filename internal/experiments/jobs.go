package experiments

import (
	"symbiosched/internal/alloc"
	"symbiosched/internal/workload"
)

// mixJob is one mix's worth of work for runMixJobs: the full two-phase
// experiment for one mix under a per-job configuration (the hash-function
// study varies the signature config per job), machine and policy. A job
// without a policy has no phase 1: its candidate mappings are simply run to
// completion (the standalone and pairwise baselines).
type mixJob struct {
	cfg        Config
	machine    machine
	profiles   []workload.Profile
	policy     alloc.Policy
	candidates []alloc.Mapping
	virt       *VirtSpec
}

// soloJobs returns one policy-free job per profile that runs it alone on
// core 0 of machine m: the standalone baselines the fairness and pairwise
// studies measure slowdowns against.
func soloJobs(c Config, m machine, profiles []workload.Profile) []mixJob {
	jobs := make([]mixJob, len(profiles))
	for i := range profiles {
		jobs[i] = mixJob{cfg: c, machine: m, profiles: profiles[i : i+1], candidates: []alloc.Mapping{{0}}}
	}
	return jobs
}

// runMixJobs executes every job on one flat work-stealing pool and returns
// the outcomes in job order. A job with a policy becomes a phase-1 root task
// that, once the majority mapping is known, spawns one independent phase-2
// task per candidate mapping onto the executing worker's own deque: the
// worker's LIFO pop keeps it depth-first on the mix it just profiled (whose
// workload its arena holds rewound), while idle workers steal candidates
// from the front. A job without one contributes its candidate tasks as root
// tasks, and its outcome has no chosen mapping (ChosenIdx -1). Every task
// writes into a pre-assigned slot of outcomes, so the result is
// bit-identical for any worker count and any steal interleaving.
//
// c supplies the execution parameters (worker count, OnTask callback); each
// job's cfg supplies the simulation parameters.
func runMixJobs(c Config, jobs []mixJob) []MixOutcome {
	outcomes := make([]MixOutcome, len(jobs))
	if len(jobs) == 0 {
		return outcomes
	}
	pool := newWSPool(c.workers(), c.OnTask)
	arenas := make([]*simArena, len(pool.workers))
	for i := range arenas {
		arenas[i] = getArena()
	}
	defer func() {
		for _, a := range arenas {
			putArena(a)
		}
	}()

	candidate := func(j, i int, aff alloc.Mapping) wsTask {
		return wsTask{kind: TaskCandidate, mix: j, candidate: i,
			run: func(_ *wsPool, w int) {
				outcomes[j].Candidates[i] = arenas[w].runMapping(&jobs[j], aff)
			}}
	}
	roots := make([]wsTask, 0, len(jobs))
	for j := range jobs {
		out := &outcomes[j]
		out.ChosenIdx = -1
		out.Names = make([]string, len(jobs[j].profiles))
		for i, prof := range jobs[j].profiles {
			out.Names[i] = prof.Name
		}
		if jobs[j].policy == nil {
			out.Candidates = make([]MixResult, len(jobs[j].candidates))
			for i, cand := range jobs[j].candidates {
				roots = append(roots, candidate(j, i, cand))
			}
			continue
		}
		roots = append(roots, wsTask{kind: TaskPhase1, mix: j, candidate: -1,
			run: func(p *wsPool, w int) {
				job := &jobs[j]
				chosen := arenas[w].phase1(job)
				out.Chosen = chosen
				cands := make([]alloc.Mapping, len(job.candidates), len(job.candidates)+1)
				copy(cands, job.candidates)
				for i, cand := range cands {
					if cand.Key() == chosen.Key() {
						out.ChosenIdx = i
					}
				}
				if out.ChosenIdx < 0 {
					cands = append(cands, chosen)
					out.ChosenIdx = len(cands) - 1
				}
				out.Candidates = make([]MixResult, len(cands))
				for i, cand := range cands {
					p.push(w, candidate(j, i, cand))
				}
			}})
	}
	pool.run(roots)
	return outcomes
}

package experiments

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"symbiosched/internal/alloc"
	"symbiosched/internal/workload"
)

// TestCampaignGolden runs the full two-phase methodology on one Quick mix —
// phase-1 signature gathering with majority vote, then every candidate
// mapping to completion — and compares the outcome with recorded values. They
// come from a build on which eager and lazy capture gave this campaign
// identical outcomes, so the test pins the whole chain end to end: the
// access loop's timing, lazy capture's materialized values (through the
// mapping the vote chooses), and the allocator.
func TestCampaignGolden(t *testing.T) {
	var mix []workload.Profile
	for _, n := range []string{"mcf", "libquantum", "povray", "gobmk"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, p)
	}
	c := Quick()
	c.Workers = 1
	got := c.RunMix(mix, mustPolicy(), c.candidatesFor(mix), nil)

	want := []MixResult{
		{Mapping: alloc.Mapping{0, 0, 1, 1}, UserCycles: []uint64{5414040, 5119609, 4914220, 5254946}},
		{Mapping: alloc.Mapping{0, 1, 0, 1}, UserCycles: []uint64{9840056, 5138614, 4914220, 4966190}},
		{Mapping: alloc.Mapping{0, 1, 1, 0}, UserCycles: []uint64{9840056, 5138437, 4914220, 4966190}},
	}
	if got.ChosenIdx != 0 || !got.Chosen.Equal(want[0].Mapping) {
		t.Fatalf("chose candidate %d %v, want 0 %v", got.ChosenIdx, got.Chosen, want[0].Mapping)
	}
	if len(got.Candidates) != len(want) {
		t.Fatalf("%d candidates, want %d", len(got.Candidates), len(want))
	}
	for i, w := range want {
		g := got.Candidates[i]
		if !g.Mapping.Equal(w.Mapping) || !slices.Equal(g.UserCycles, w.UserCycles) {
			t.Errorf("candidate %d: mapping %v user cycles %v, want %v %v",
				i, g.Mapping, g.UserCycles, w.Mapping, w.UserCycles)
		}
	}
}

// studyRuns is one study's Quick result at Workers 1 and at Workers 3, with
// the scheduler tasks each run delivered to Config.OnTask, by kind. The
// golden test, the OnTask test and the studies' shape tests share one
// studyRuns per study, so each study runs twice per test binary. The two
// runs execute concurrently: the one-worker run leaves cores idle.
type studyRuns[T any] struct {
	res   [2]T
	tasks [2][2]int // tasks[run][TaskKind]
}

func runStudy[T any](study func(Config) T) func() studyRuns[T] {
	return sync.OnceValue(func() studyRuns[T] {
		var out studyRuns[T]
		var wg sync.WaitGroup
		for r, w := range []int{1, 3} {
			var mu sync.Mutex
			c := Quick()
			c.Workers = w
			c.OnTask = func(ti TaskInfo) {
				mu.Lock()
				out.tasks[r][ti.Kind]++
				mu.Unlock()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				out.res[r] = study(c)
			}()
		}
		wg.Wait()
		return out
	})
}

var (
	table1Runs   = runStudy(Table1)
	fairnessRuns = runStudy(Fairness)
	quadRuns     = runStudy(func(c Config) QuadCoreResult {
		c.CandidateLimit = 10
		return QuadCore(c, nil)
	})
	fig3aRuns = runStudy(Figure3a)
	fig3bRuns = runStudy(Figure3b)
)

func recInts[T ~int | ~uint64](xs []T) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ",")
}

func recBits(xs ...float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return strings.Join(s, ",")
}

func recordTable1(r Table1Result) []string {
	out := []string{"names " + strings.Join(r.Names, ","), "chosen " + recInts(r.Chosen)}
	for m, mp := range r.Mappings {
		out = append(out, fmt.Sprintf("mapping %s user %s", recInts(mp), recInts(r.Times[m])))
	}
	return out
}

func recordFairness(r FairnessResult) []string {
	out := []string{"names " + strings.Join(r.Names, ",")}
	for _, row := range r.Rows {
		out = append(out, fmt.Sprintf("mapping %s chosen %t slowdown %s jain %s",
			recInts(row.Mapping), row.Chosen, recBits(row.Slowdowns...), recBits(row.Jain)))
	}
	return out
}

func recordQuad(r QuadCoreResult) []string {
	out := []string{"names " + strings.Join(r.Names, ","),
		fmt.Sprintf("chosen %s index %d", recInts(r.Chosen), r.ChosenIdx)}
	for _, c := range r.Candidates {
		out = append(out, fmt.Sprintf("mapping %s user %s", recInts(c.Mapping), recInts(c.UserCycles)))
	}
	return out
}

func recordFig3(r Figure3Result) []string {
	out := []string{"names " + strings.Join(r.Names, ",")}
	for i, row := range r.Matrix {
		out = append(out, fmt.Sprintf("matrix %s %s", r.Names[i], recBits(row...)))
	}
	for _, row := range r.Rows {
		out = append(out, fmt.Sprintf("worst %s %s %s", row.Name, row.WorstWith, recBits(row.Degradation)))
	}
	return out
}

// records renders both runs of a study in the golden file's line format.
func records[T any](runs func() studyRuns[T], record func(T) []string) func() [2][]string {
	return func() [2][]string {
		r := runs()
		return [2][]string{record(r.res[0]), record(r.res[1])}
	}
}

// TestStudiesGolden pins the exact results of the studies that run fixed
// machines rather than sweeps: Table 1, the fairness study, the quad-core
// extension (10 sampled candidates) and both pairwise studies of Fig 3. The
// record holds every user-cycle count and the bits of every float64 as they
// were when each study built its machines from scratch; the runs at one
// worker and at three must both reproduce it.
func TestStudiesGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/studies_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if study, rest, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			golden[study] = append(golden[study], rest)
		}
	}
	for _, tc := range []struct {
		study  string
		slow   bool // skipped under -short, like TestFigure3MatrixShape
		record func() [2][]string
	}{
		{"table1", false, records(table1Runs, recordTable1)},
		{"fairness", false, records(fairnessRuns, recordFairness)},
		{"quad", false, records(quadRuns, recordQuad)},
		{"fig3a", true, records(fig3aRuns, recordFig3)},
		{"fig3b", true, records(fig3bRuns, recordFig3)},
	} {
		t.Run(tc.study, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("pairwise study is slow")
			}
			want := golden[tc.study]
			if len(want) == 0 {
				t.Fatalf("no %s record", tc.study)
			}
			for r, got := range tc.record() {
				for i := 0; i < max(len(got), len(want)); i++ {
					var g, w string
					if i < len(got) {
						g = got[i]
					}
					if i < len(want) {
						w = want[i]
					}
					if g != w {
						t.Fatalf("run %d (workers %d) line %d:\n got  %q\n want %q", r, []int{1, 3}[r], i, g, w)
					}
				}
			}
		})
	}
}

// TestOnTaskSeesEveryStudy checks that every study's runs pass through the
// pool, where Config.OnTask (and so -progress) observes them: Table 1 is
// one phase-1 task and three candidates, the fairness study adds its four
// standalone runs as candidates, the quad core runs one phase 1 and its
// candidates, and each pairwise study runs 12 standalone and 66 pair runs
// with no phase 1 at all.
func TestOnTaskSeesEveryStudy(t *testing.T) {
	check := func(study string, tasks [2][2]int, phase1, cands int) {
		t.Helper()
		for r, n := range tasks {
			if n[TaskPhase1] != phase1 || n[TaskCandidate] != cands {
				t.Errorf("%s at workers %d: OnTask saw %d phase-1 + %d candidate tasks, want %d + %d",
					study, []int{1, 3}[r], n[TaskPhase1], n[TaskCandidate], phase1, cands)
			}
		}
	}
	check("table1", table1Runs().tasks, 1, 3)
	check("fairness", fairnessRuns().tasks, 1, 7)
	q := quadRuns()
	check("quad", q.tasks, 1, len(q.res[0].Candidates))
	if testing.Short() {
		return // the pairwise studies are slow
	}
	check("fig3a", fig3aRuns().tasks, 0, 78)
	check("fig3b", fig3bRuns().tasks, 0, 78)
}

package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"symbiosched/internal/alloc"
	"symbiosched/internal/engine"
	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// writeTraceDir captures four quick-scale benchmarks into dir as raw
// compiled traces and returns their (sorted) names.
func writeTraceDir(t testing.TB, dir string) []string {
	t.Helper()
	return writeCaptures(t, dir, 77)
}

// writeCaptures captures four quick-scale benchmarks at seed into dir as raw
// compiled traces and returns their (sorted) names.
func writeCaptures(t testing.TB, dir string, seed uint64) []string {
	t.Helper()
	names := []string{"gobmk", "libquantum", "mcf", "povray"}
	for _, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		writeTrace(t, filepath.Join(dir, name+trace.CompiledExt), trace.CaptureRuns(p.NewThreads(1, seed, 64)[0], 60_000), false)
	}
	return names
}

// writeTrace writes ct to path in the raw or the framed container.
func writeTrace(t testing.TB, path string, ct *trace.CompiledTrace, framed bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if framed {
		err = trace.WriteCompiledFrames(f, ct, 1024, 0)
	} else {
		err = trace.WriteCompiled(f, ct)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTracePoolFromDir(t *testing.T) {
	dir := t.TempDir()
	names := writeTraceDir(t, dir)
	pool, err := TracePoolFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != len(names) {
		t.Fatalf("pool has %d profiles, want %d", len(pool), len(names))
	}
	for i, p := range pool {
		if p.Name != names[i] {
			t.Fatalf("profile %d is %q, want %q (sorted file order)", i, p.Name, names[i])
		}
		if p.Fingerprint == "" {
			t.Fatalf("%s: empty fingerprint", p.Name)
		}
		if p.Instructions != 60_000 {
			t.Fatalf("%s: %d instructions, want 60000", p.Name, p.Instructions)
		}
		if p.MemRatio <= 0 || p.MemRatio >= 1 {
			t.Fatalf("%s: MemRatio %f out of range", p.Name, p.MemRatio)
		}
		if p.Threads != 1 {
			t.Fatalf("%s: %d threads", p.Name, p.Threads)
		}
	}

	// Framed containers of the same traces, resident or streamed, must
	// report identical metadata: the content fingerprint does not depend on
	// the container, and the counts come from the same header fields.
	convertTraces(t, dir, names)
	files, err := ListTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	streaming, err := TracePoolFromFiles(files, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		if pool[i].Fingerprint != streaming[i].Fingerprint ||
			pool[i].Instructions != streaming[i].Instructions ||
			pool[i].MemRatio != streaming[i].MemRatio {
			t.Fatalf("%s: compiled metadata %q/%d/%f, streaming %q/%d/%f",
				pool[i].Name, pool[i].Fingerprint, pool[i].Instructions, pool[i].MemRatio,
				streaming[i].Fingerprint, streaming[i].Instructions, streaming[i].MemRatio)
		}
	}
}

// TestTraceMixMatchesSyntheticPlumbing runs a trace-driven mix end to end
// through the fresh reference (freshRun) and the arena path: deterministic
// across repeats, and the arena (which rewinds replay cursors in place) must
// reproduce the fresh result exactly — the Rewind contract for both replay flavours, the shared
// compiled cursor and the frame-streaming one.
func TestTraceMixMatchesSyntheticPlumbing(t *testing.T) {
	dir := t.TempDir()
	names := writeTraceDir(t, dir)
	pool, err := TracePoolFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := Quick()
	aff := alloc.Mapping{0, 1, 0, 1}
	job := mixJob{cfg: c, profiles: pool}

	want := freshRun(job, aff)
	if got := freshRun(job, aff); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace mix not deterministic: %+v vs %+v", got, want)
	}
	for _, u := range want.UserCycles {
		if u == 0 {
			t.Fatalf("a trace-driven process never completed: %+v", want)
		}
	}

	a := getArena()
	defer putArena(a)
	for round := 0; round < 3; round++ {
		if got := a.runMapping(&job, aff); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: arena %+v, fresh %+v", round, got, want)
		}
	}

	// Streaming pool over framed copies of the same traces: same simulation
	// results as compiled.
	convertTraces(t, dir, names)
	files, err := ListTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	streaming, err := TracePoolFromFiles(files, true)
	if err != nil {
		t.Fatal(err)
	}
	stream := mixJob{cfg: c, profiles: streaming}
	got := freshRun(stream, aff)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming pool diverged from compiled: %+v vs %+v", got, want)
	}
	// A fresh arena: the streaming profiles carry the same names and content
	// fingerprints as the compiled ones, so a's cached workload would serve
	// them. Its second round rewinds the frame-streaming cursors in place.
	sa := &simArena{machines: map[engineKey]*engine.Machine{}}
	for round := 0; round < 2; round++ {
		if got := sa.runMapping(&stream, aff); !reflect.DeepEqual(got, want) {
			t.Fatalf("streaming arena round %d: %+v, want %+v", round, got, want)
		}
	}
	if _, ok := sa.procs[0].Threads[0].Gen.(*trace.FrameStreamReplay); !ok {
		t.Fatalf("streaming arena replays through %T, not a frame stream", sa.procs[0].Threads[0].Gen)
	}
}

// TestTraceSweepShard runs a full sharded sweep over a trace pool and checks
// the campaign fingerprints bind to trace content.
func TestTraceSweepShard(t *testing.T) {
	dir := t.TempDir()
	writeTraceDir(t, dir)
	pool, err := TracePoolFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := Quick()
	s, err := c.SweepShard(pool, alloc.WeightedInterferenceGraph{}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Outcomes) != 1 { // C(4,4)
		t.Fatalf("%d outcomes, want 1", len(s.Outcomes))
	}
	if s.PoolHash != PoolHashProfiles(pool) {
		t.Fatalf("shard pool hash %s, want %s", s.PoolHash, PoolHashProfiles(pool))
	}
	// The hash must differ from a plain name hash (content binds it) and
	// from the same names with different trace content.
	if s.PoolHash == PoolHash(poolNames(pool)) {
		t.Fatal("trace pool hash ignores fingerprints")
	}
	dir2 := t.TempDir()
	writeCaptures(t, dir2, 78) // different seed
	pool2, err := TracePoolFromDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if PoolHashProfiles(pool2) == PoolHashProfiles(pool) {
		t.Fatal("different trace content, same pool hash")
	}

	// Synthetic pools must hash exactly as before (name-only parts).
	syn := mixProfiles(t, "mcf", "povray")
	if PoolHashProfiles(syn) != PoolHash([]string{"mcf", "povray"}) {
		t.Fatal("synthetic pool hash changed")
	}
}

func TestSelectProfiles(t *testing.T) {
	dir := t.TempDir()
	writeTraceDir(t, dir)
	pool, err := TracePoolFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := SelectProfiles(pool, []string{"mcf", "gobmk"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "gobmk" || sub[1].Name != "mcf" {
		t.Fatalf("subset = %v", poolNames(sub))
	}
	if _, err := SelectProfiles(pool, []string{"mcf", "nosuch"}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestTracePoolEmptyDir(t *testing.T) {
	if _, err := TracePoolFromDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := TracePoolFromDir(filepath.Join(t.TempDir(), "nosuch")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

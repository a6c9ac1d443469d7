package symbio

import (
	"bytes"
	"testing"
)

func TestBenchmarksCatalog(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 20 {
		t.Fatalf("catalog size = %d, want 12 SPEC + 8 PARSEC", len(bs))
	}
	seen := map[string]Benchmark{}
	for _, b := range bs {
		if b.Name == "" || b.Class == "" || b.Threads <= 0 {
			t.Fatalf("bad benchmark %+v", b)
		}
		seen[b.Name] = b
	}
	if seen["mcf"].Class != "cache-hungry" || seen["mcf"].Threads != 1 {
		t.Fatalf("mcf = %+v", seen["mcf"])
	}
	if seen["ferret"].Threads != 4 {
		t.Fatalf("ferret = %+v", seen["ferret"])
	}
}

func TestPoliciesResolve(t *testing.T) {
	for _, p := range Policies() {
		if _, err := p.impl(); err != nil {
			t.Errorf("policy %q does not resolve: %v", p, err)
		}
	}
	if _, err := Policy("bogus").impl(); err == nil {
		t.Fatal("bogus policy accepted")
	}
	// Empty policy defaults to the paper's best algorithm.
	if _, err := Policy("").impl(); err != nil {
		t.Fatal("default policy does not resolve")
	}
}

func TestNewSignatureUnit(t *testing.T) {
	u := NewSignatureUnit(CacheGeometry{Sets: 64, Ways: 4}, 2)
	u.OnFill(0, 0x40, 0, 0)
	sig := u.ContextSwitch(0)
	if sig.Occupancy != 1 || len(sig.Symbiosis) != 2 {
		t.Fatalf("signature = %+v", sig)
	}
}

func TestRecommendErrors(t *testing.T) {
	if _, err := Recommend(nil, nil); err == nil {
		t.Fatal("empty mix accepted")
	}
	if _, err := Recommend([]string{"nosuch"}, nil); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Recommend([]string{"mcf"}, &Options{Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestRecommendQuick(t *testing.T) {
	s, err := Recommend([]string{"mcf", "libquantum", "povray", "gobmk"},
		&Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Mapping) != 4 {
		t.Fatalf("mapping = %v", s.Mapping)
	}
	if len(s.Groups) != 2 {
		t.Fatalf("groups = %v", s.Groups)
	}
	total := len(s.Groups[0]) + len(s.Groups[1])
	if total != 4 {
		t.Fatalf("groups cover %d benchmarks: %v", total, s.Groups)
	}
}

func TestEvaluateQuick(t *testing.T) {
	ev, err := Evaluate([]string{"mcf", "libquantum", "povray", "gobmk"},
		&Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Names) != 4 || len(ev.Improvements) != 4 {
		t.Fatalf("evaluation shape: %+v", ev)
	}
	if len(ev.Candidates) < 3 {
		t.Fatalf("candidates = %d", len(ev.Candidates))
	}
	chosen := 0
	for _, c := range ev.Candidates {
		if c.Chosen {
			chosen++
		}
		if len(c.UserCycles) != 4 {
			t.Fatalf("candidate times = %v", c.UserCycles)
		}
	}
	if chosen != 1 {
		t.Fatalf("%d candidates marked chosen", chosen)
	}
	// mcf (index 0) must improve; povray (index 2) must be insensitive.
	if ev.Improvements[0] < 0.05 {
		t.Fatalf("mcf improvement %.3f too small", ev.Improvements[0])
	}
	if ev.Improvements[2] > 0.10 {
		t.Fatalf("povray improvement %.3f too large", ev.Improvements[2])
	}
}

func TestEvaluateVirtualizedQuick(t *testing.T) {
	ev, err := Evaluate([]string{"mcf", "libquantum", "povray", "gobmk"},
		&Options{Quick: true, Virtualized: true})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Improvements[0] <= 0 {
		t.Fatalf("virtualized mcf improvement %.3f", ev.Improvements[0])
	}
	native, err := Evaluate([]string{"mcf", "libquantum", "povray", "gobmk"},
		&Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Improvements[0] >= native.Improvements[0] {
		t.Fatalf("VM improvement %.3f not below native %.3f",
			ev.Improvements[0], native.Improvements[0])
	}
}

func TestScheduleGroupsMultithreaded(t *testing.T) {
	s, err := Recommend([]string{"ferret", "swaptions"},
		&Options{Quick: true, Policy: TwoPhaseMultithreaded})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Mapping) != 8 {
		t.Fatalf("mapping length %d, want 8 threads", len(s.Mapping))
	}
}

func TestTraceFacadeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := CaptureTrace("mcf", 5000, 64, 7, &buf); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Instructions() != 5000 {
		t.Fatalf("read %d instructions", ct.Instructions())
	}
	// The replay cursor is a usable RefSource.
	var src RefSource = ReplayTrace(ct, true, 0)
	mem := 0
	for i := 0; i < 1000; i++ {
		if src.Next().Mem {
			mem++
		}
	}
	if mem == 0 {
		t.Fatal("replay produced no memory refs")
	}
}

func TestTraceFacadeErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := CaptureTrace("nosuch", 10, 64, 1, &buf); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if err := CaptureTrace("mcf", 0, 64, 1, &buf); err == nil {
		t.Fatal("zero-length capture accepted")
	}
}

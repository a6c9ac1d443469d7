package symbio_test

import (
	"bytes"
	"fmt"

	symbio "symbiosched"
)

// Recommend asks the signature hardware + weighted interference graph for a
// contention-aware schedule of four programs on the simulated dual-core.
func ExampleRecommend() {
	schedule, err := symbio.Recommend(
		[]string{"mcf", "libquantum", "povray", "gobmk"},
		&symbio.Options{Quick: true},
	)
	if err != nil {
		panic(err)
	}
	for core, group := range schedule.Groups {
		fmt.Printf("core %d: %v\n", core, group)
	}
}

// Evaluate runs the full two-phase methodology: phase 1 picks a schedule by
// majority vote, phase 2 measures it against every candidate mapping.
func ExampleEvaluate() {
	ev, err := symbio.Evaluate(
		[]string{"mcf", "libquantum", "povray", "gobmk"},
		&symbio.Options{Quick: true},
	)
	if err != nil {
		panic(err)
	}
	for i, name := range ev.Names {
		fmt.Printf("%s: %+.1f%% over the worst mapping\n",
			name, 100*ev.Improvements[i])
	}
}

// NewSignatureUnit embeds the paper's hardware into a custom cache model:
// report fills and evictions, collect a Signature at every deschedule.
func ExampleNewSignatureUnit() {
	unit := symbio.NewSignatureUnit(symbio.CacheGeometry{Sets: 64, Ways: 4}, 2)

	// ... inside your cache model:
	unit.OnFill(0, 0x40, 1, 0) // core 0 filled line 0x40 into set 1, way 0
	unit.OnEvict(0x40, 1, 0)   // the line was later replaced

	// ... inside your scheduler, when descheduling core 0's process:
	sig := unit.ContextSwitch(0)
	fmt.Println(len(sig.Symbiosis)) // one symbiosis value per core
	// Output: 2
}

// CaptureTrace records a benchmark's reference stream for replay through
// the simulator (or any external consumer of the trace format).
func ExampleCaptureTrace() {
	var buf bytes.Buffer
	if err := symbio.CaptureTrace("gcc", 100_000, 64, 1, &buf); err != nil {
		panic(err)
	}
	ct, err := symbio.ReadTrace(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(ct.Instructions())
	// Output: 100000
}

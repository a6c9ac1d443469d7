package main

import "symbiosched/internal/experiments"

// scale sizes every workload. The full scale is what the benchmark runs;
// the tests use a tiny one.
type scale struct {
	pool     []string           // sweep pool
	sweep    experiments.Config // fig10-synth configuration (seed and workers set per run)
	passRefs int                // memory references per profile in the isolated layer passes
	churn    experiments.ChurnConfig
	// stormCampaigns fig10 campaigns over stormPool (nil: the figure's
	// 12-benchmark pool), one shard per combination.
	stormCampaigns int
	stormPool      []string
}

var fullScale = scale{
	pool:     []string{"mcf", "omnetpp", "libquantum", "hmmer", "povray", "gobmk"},
	sweep:    experiments.Quick(),
	passRefs: 1 << 20,
	churn: experiments.ChurnConfig{
		Mode: "poisson", P0: 1024, Cores: 64, Quanta: 1250,
		ArrivalRate: 16, MeanLife: 64, RefreshFrac: 0.01, FragLimit: 0.6, MissLimit: 500,
	},
	stormCampaigns: 16,
}

// sweepDigests are fig10-synth's recorded outputs at full scale and one
// seed: the per-mix digests (see mixDigest) in combination order, and the
// lineage checksums, 100 × the report's average and maximum improvement.
type sweepDigests struct {
	mixes          []string
	avgPct, maxPct float64
}

// heldOutSeed is the second seed with recorded outputs, never used while
// the benchmark was tuned.
const heldOutSeed = 7

var recordedSweeps = map[uint64]sweepDigests{
	defaultSeed: {avgPct: 6.413870873232981, maxPct: 48.56972425895182, mixes: []string{
		"6fc5ea87444f6f65",
		"fce4b9f7669d30bc",
		"2666ef5aaba8f17a",
		"94036f9cd20addda",
		"4717e52851916a23",
		"443048fd7f118264",
		"71ba31a4d5265ee8",
		"97c8e8e1f51261c2",
		"f9a8b2242c056ed7",
		"06282d0ac61d641f",
		"269c5b684bb9de15",
		"5a075f8a181254b3",
		"251938646c42dc65",
		"5d2de762dd609df5",
		"07dea1d4bfa5203e"}},
	heldOutSeed: {avgPct: 6.456892333541539, maxPct: 48.54994098334162, mixes: []string{
		"a9b6a3b99937db8b",
		"7fbfd288826f4010",
		"473d6094ce85afd5",
		"6f9f7a0d58e106e3",
		"fdfd59d90856ea8d",
		"3f2c049fb4eb86ec",
		"7c6c27195e603cf2",
		"e5879b9e545b687e",
		"5eadfd2dd1771ec3",
		"1eb15439464ecf6f",
		"9c19bba9d367fcd5",
		"4637da55b7b890d9",
		"1526a9a538f08203",
		"ee917486e73d1a81",
		"f80d83967702bad7"}},
}

var recordedChurn = map[uint64]string{
	defaultSeed: "b73d9bd1b67c25ca",
	heldOutSeed: "7db0f5f002f64af5",
}

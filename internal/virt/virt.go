// Package virt models the paper's virtualized execution environment (§4.2,
// §5.1.2): benchmarks encapsulated one-per-VM under a Xen-style hypervisor
// on the same dual-core machine. The signature hardware is identical — the
// RBV is simply computed per VM instead of per process at every vcpu world
// switch — so the layer reduces to a cost model: the hypervisor's
// per-instruction overhead factor on every guest thread (Decorate), and a
// world-switch cost at every context switch plus the Dom0 background
// descriptor on the machine (EngineConfig). Both effects compress the
// relative scheduling gains, which is exactly the Fig 10 → Fig 11
// difference the paper reports (54% native vs 26% virtualized for mcf).
// Booting the VMs is those calls on a process set and an engine
// configuration; the experiments package makes them on its reusable
// simulation state.
package virt

import (
	"fmt"

	"symbiosched/internal/engine"
	"symbiosched/internal/kernel"
	"symbiosched/internal/workload"
)

// Overhead describes the hypervisor cost model.
type Overhead struct {
	// CostNum/CostDen scale every guest instruction's cycle cost; the
	// default 9/8 models a ~12.5% virtualization tax (shadow paging, vmexit
	// amortisation) on the paper's 2006-era Xen.
	CostNum, CostDen uint32
	// SwitchCycles is the vcpu world-switch cost charged per context switch.
	SwitchCycles uint64
	// Dom0Period/Dom0Ops model the control domain's service activity: every
	// Dom0Period cycles each core runs Dom0Ops instructions of Dom0/Xen
	// housekeeping that pollutes the caches and consumes wall time but no
	// guest user time. This background churn is the main reason the VM
	// improvements in Fig 11 are roughly half the native gains of Fig 10:
	// it adds schedule-independent contention to every mapping.
	Dom0Period, Dom0Ops uint64
	// Dom0FootprintFrac is the Dom0 working set as a fraction of the L2
	// (numerator over 16): 4 means a quarter of the cache.
	Dom0FootprintFrac16 uint64
}

// DefaultOverhead returns the default Xen-era cost model.
func DefaultOverhead() Overhead {
	return Overhead{
		CostNum: 9, CostDen: 8,
		SwitchCycles:        20_000,
		Dom0Period:          250_000,
		Dom0Ops:             600,
		Dom0FootprintFrac16: 4,
	}
}

// Normalized resolves the zero value to the default model and validates the
// overhead factor (a factor below 1 would model a hypervisor that speeds
// guests up).
func (ov Overhead) Normalized() Overhead {
	if ov.CostDen == 0 {
		ov = DefaultOverhead()
	}
	if ov.CostNum < ov.CostDen {
		panic(fmt.Sprintf("virt: overhead factor %d/%d below 1", ov.CostNum, ov.CostDen))
	}
	return ov
}

// Decorate attaches the hypervisor's per-instruction overhead factor to
// every guest thread. kernel.ResetWorkload clears the factors, so arena
// paths that rewind a cached process set must re-Decorate before running.
func (ov Overhead) Decorate(procs []*kernel.Process) {
	for _, p := range procs {
		for _, t := range p.Threads {
			t.CostNum, t.CostDen = ov.CostNum, ov.CostDen
		}
	}
}

// EngineConfig applies the hypervisor's machine-level costs to an engine
// configuration: the vcpu world-switch cost and the Dom0 background
// descriptor. The returned config carries no closures — background activity
// is the value-typed workload.BackgroundSpec — so virtualized configurations
// are comparable and cacheable by the experiments arenas.
func (ov Overhead) EngineConfig(cfg engine.Config, seed uint64) engine.Config {
	cfg.SwitchCost = ov.SwitchCycles
	if ov.Dom0Period > 0 && ov.Dom0Ops > 0 {
		l2Bytes := uint64(cfg.Hierarchy.L2.SizeBytes)
		region := l2Bytes * ov.Dom0FootprintFrac16 / 16
		if region < 4096 {
			region = 4096
		}
		region -= region % 64
		cfg.Background = engine.BackgroundConfig{
			Period: ov.Dom0Period,
			Ops:    ov.Dom0Ops,
			Gen: workload.BackgroundSpec{
				Pattern:  "stream",
				Region:   region,
				MemRatio: 0.4,
				// Dom0 lives in its own address space, far above any guest;
				// per-core streams are offset so they contend rather than
				// share.
				Base:       uint64(250) << asidShiftVirt,
				CoreStride: uint64(1) << 32,
				Seed:       seed,
			},
		}
	}
	return cfg
}

// asidShiftVirt mirrors the workload package's address-space layout so the
// Dom0 region never collides with guest regions.
const asidShiftVirt = 40

package workloads

import (
	"delta/internal/chip"
)

// SizePoint is one cache-size measurement from the classification runs.
type SizePoint struct {
	CacheKB int
	IPC     float64
	MemMPKI float64
}

// Profile is the outcome of the paper's Section III-B procedure for one app.
type Profile struct {
	App    App
	Points [3]SizePoint // 128 KB, 512 KB, 8 MB
}

// classifySizes are the three capacity points of Section III-B.
var classifySizes = []int{128, 512, 8192}

// MeasureApp runs the application alone on a single-tile chip at the three
// classification cache sizes. warm/budget control the simulated instruction
// counts (the paper uses 1 B + 1 B; time-compressed runs use less).
func MeasureApp(a App, warm, budget uint64, seed uint64) Profile {
	p := Profile{App: a}
	for i, kb := range classifySizes {
		cfg := chip.DefaultConfig(1)
		cfg.LLCBytes = kb * 1024
		cfg.Quantum = 1000
		cfg.UmonSampleEvery = 8
		c := chip.New(cfg, chip.NewPrivate())
		c.SetWorkload(0, a.Spec.Build(seed), true)
		c.Run(warm, budget)
		r := c.Results()[0]
		c.Release()
		p.Points[i] = SizePoint{CacheKB: kb, IPC: r.IPC, MemMPKI: r.MemMPKI}
	}
	return p
}

// Classify applies the paper's rule to a measured profile: >10% IPC
// improvement from 128 KB to 512 KB marks cache-sensitive low; >10% from
// 512 KB to 8 MB marks low-medium; otherwise MPKI above five separates
// thrashing from insensitive.
func (p Profile) Classify() Class {
	low := improvement(p.Points[0].IPC, p.Points[1].IPC) > 0.10
	med := improvement(p.Points[1].IPC, p.Points[2].IPC) > 0.10
	switch {
	case med:
		return SensLowMed
	case low:
		return SensLow
	case p.Points[2].MemMPKI > 5:
		return Thrashing
	default:
		return Insensitive
	}
}

func improvement(before, after float64) float64 {
	if before <= 0 {
		return 0
	}
	return after/before - 1
}

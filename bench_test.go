// Benchmarks: one per experiment in the DESIGN.md §4 index (regenerate
// with `go test -bench . -benchmem`), plus engine micro-benchmarks.
// Each experiment bench runs its full kernel at a reduced scale; the
// full-scale numbers live in EXPERIMENTS.md (cmd/experiments).
package treesched_test

import (
	"testing"

	"treesched"
	"treesched/internal/experiments"
)

// benchExperiment runs a registered experiment at bench scale.
func benchExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(experiments.Config{Seed: uint64(i + 1), Scale: scale})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Tables)+len(out.Texts) == 0 {
			b.Fatal("no artifacts")
		}
	}
}

func BenchmarkF1Render(b *testing.B)               { benchExperiment(b, "F1", 0.05) }
func BenchmarkF2Reduction(b *testing.B)            { benchExperiment(b, "F2", 0.05) }
func BenchmarkT1IdenticalCompetitive(b *testing.B) { benchExperiment(b, "T1", 0.05) }
func BenchmarkT2UnrelatedCompetitive(b *testing.B) { benchExperiment(b, "T2", 0.05) }
func BenchmarkT3FracIntegral(b *testing.B)         { benchExperiment(b, "T3", 0.05) }
func BenchmarkT4BroomstickOPT(b *testing.B)        { benchExperiment(b, "T4", 0.05) }
func BenchmarkT5BroomstickFractional(b *testing.B) { benchExperiment(b, "T5", 0.05) }
func BenchmarkT6BroomstickUnrelated(b *testing.B)  { benchExperiment(b, "T6", 0.05) }
func BenchmarkL1InteriorWait(b *testing.B)         { benchExperiment(b, "L1", 0.05) }
func BenchmarkL2VolumeBound(b *testing.B)          { benchExperiment(b, "L2", 0.05) }
func BenchmarkL3Potential(b *testing.B)            { benchExperiment(b, "L3", 0.05) }
func BenchmarkL8Domination(b *testing.B)           { benchExperiment(b, "L8", 0.05) }
func BenchmarkB1AssignerComparison(b *testing.B)   { benchExperiment(b, "B1", 0.05) }
func BenchmarkB2NodePolicies(b *testing.B)         { benchExperiment(b, "B2", 0.05) }
func BenchmarkB3SpeedSweep(b *testing.B)           { benchExperiment(b, "B3", 0.05) }
func BenchmarkB4EngineThroughput(b *testing.B)     { benchExperiment(b, "B4", 0.05) }
func BenchmarkB5GreedyAblation(b *testing.B)       { benchExperiment(b, "B5", 0.05) }
func BenchmarkB6Packetized(b *testing.B)           { benchExperiment(b, "B6", 0.05) }
func BenchmarkB7ShadowVsDirect(b *testing.B)       { benchExperiment(b, "B7", 0.05) }
func BenchmarkLP1Bounds(b *testing.B)              { benchExperiment(b, "LP1", 1) }
func BenchmarkD1DualFitting(b *testing.B)          { benchExperiment(b, "D1", 0.05) }
func BenchmarkX1ArbitraryOrigins(b *testing.B)     { benchExperiment(b, "X1", 0.05) }
func BenchmarkX2MaxFlow(b *testing.B)              { benchExperiment(b, "X2", 0.05) }
func BenchmarkX3WeightedFlow(b *testing.B)         { benchExperiment(b, "X3", 0.05) }
func BenchmarkX4LineMaxFlow(b *testing.B)          { benchExperiment(b, "X4", 0.05) }
func BenchmarkW1WorkloadSensitivity(b *testing.B)  { benchExperiment(b, "W1", 0.05) }
func BenchmarkM1MachineModels(b *testing.B)        { benchExperiment(b, "M1", 0.05) }
func BenchmarkR1FaultDegradation(b *testing.B)     { benchExperiment(b, "R1", 0.05) }

// Engine micro-benchmarks.

func engineWorkload(b *testing.B, n int) (*treesched.Tree, *treesched.Trace) {
	b.Helper()
	t := treesched.FatTree(2, 2, 2)
	tr, err := treesched.PoissonTrace(42, n, 0.95, t)
	if err != nil {
		b.Fatal(err)
	}
	return t, tr
}

func BenchmarkEngineGreedySJF(b *testing.B) {
	t, tr := engineWorkload(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := treesched.Run(t, tr, treesched.NewGreedyIdentical(0.5), treesched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkEngineRoundRobinFIFO(b *testing.B) {
	t, tr := engineWorkload(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treesched.Run(t, tr, &treesched.RoundRobin{}, treesched.Options{Policy: treesched.FIFO{}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineInstrumented(b *testing.B) {
	t, tr := engineWorkload(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treesched.Run(t, tr, treesched.NewGreedyIdentical(0.5), treesched.Options{Instrument: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineShadow(b *testing.B) {
	t, tr := engineWorkload(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := treesched.NewShadow(t, treesched.ShadowConfig{Eps: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := treesched.Run(t, tr, sh, treesched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnginePacketized(b *testing.B) {
	t, tr := engineWorkload(b, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treesched.RunPacketized(t, tr, treesched.NewGreedyIdentical(0.5), treesched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBound(b *testing.B) {
	t, tr := engineWorkload(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if treesched.OPTLowerBound(t, tr) <= 0 {
			b.Fatal("vacuous bound")
		}
	}
}

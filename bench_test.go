// Root-level benchmarks: one testing.B target per table and figure of the
// paper's evaluation, each delegating to the shared experiment driver in
// internal/bench. Run them all with
//
//	go test -bench=. -benchmem
//
// Benchmarks run the experiments at a reduced scale controlled by the
// -benchscale flag (default 0.002) so the full matrix completes quickly;
// use cmd/hermit-bench for paper-scale runs and readable tables.
package hermitdb_test

import (
	"flag"
	"io"
	"testing"
	"time"

	hermitdb "hermit"
	"hermit/internal/bench"
)

var benchScale = flag.Float64("benchscale", 0.002, "dataset scale for figure benchmarks (1.0 = paper size)")

// runFigure executes a registered experiment b.N times, output discarded.
func runFigure(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := bench.Config{
		Out:        io.Discard,
		Scale:      *benchScale,
		MeasureFor: 20 * time.Millisecond,
		Seed:       1,
		TmpDir:     b.TempDir(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4RangeStock(b *testing.B)            { runFigure(b, "fig4") }
func BenchmarkFig5MemoryStock(b *testing.B)           { runFigure(b, "fig5") }
func BenchmarkFig6RangeSensor(b *testing.B)           { runFigure(b, "fig6") }
func BenchmarkFig7MemorySensor(b *testing.B)          { runFigure(b, "fig7") }
func BenchmarkFig8RangeLinear(b *testing.B)           { runFigure(b, "fig8") }
func BenchmarkFig9RangeSigmoid(b *testing.B)          { runFigure(b, "fig9") }
func BenchmarkFig10BreakdownHermit(b *testing.B)      { runFigure(b, "fig10") }
func BenchmarkFig11BreakdownBaseline(b *testing.B)    { runFigure(b, "fig11") }
func BenchmarkFig12PointLinear(b *testing.B)          { runFigure(b, "fig12") }
func BenchmarkFig13PointSigmoid(b *testing.B)         { runFigure(b, "fig13") }
func BenchmarkFig14PointBreakdownHermit(b *testing.B) { runFigure(b, "fig14") }
func BenchmarkFig15PointBreakdownBaseline(b *testing.B) {
	runFigure(b, "fig15")
}
func BenchmarkFig16ErrorBound(b *testing.B)          { runFigure(b, "fig16") }
func BenchmarkFig17FalsePositives(b *testing.B)      { runFigure(b, "fig17") }
func BenchmarkFig18MemoryErrorBound(b *testing.B)    { runFigure(b, "fig18") }
func BenchmarkFig19IndexMemory(b *testing.B)         { runFigure(b, "fig19") }
func BenchmarkFig20TotalMemory(b *testing.B)         { runFigure(b, "fig20") }
func BenchmarkFig21Construction(b *testing.B)        { runFigure(b, "fig21") }
func BenchmarkFig22Insertion(b *testing.B)           { runFigure(b, "fig22") }
func BenchmarkFig23Reorg(b *testing.B)               { runFigure(b, "fig23") }
func BenchmarkFig24Disk(b *testing.B)                { runFigure(b, "fig24") }
func BenchmarkTable1Training(b *testing.B)           { runFigure(b, "tab1") }
func BenchmarkFig26Outliers(b *testing.B)            { runFigure(b, "fig26") }
func BenchmarkFig27CMLinearThroughput(b *testing.B)  { runFigure(b, "fig27") }
func BenchmarkFig28CMLinearMemory(b *testing.B)      { runFigure(b, "fig28") }
func BenchmarkFig29CMSigmoidThroughput(b *testing.B) { runFigure(b, "fig29") }
func BenchmarkFig30CMSigmoidMemory(b *testing.B)     { runFigure(b, "fig30") }
func BenchmarkAblations(b *testing.B)                { runFigure(b, "ablation") }
func BenchmarkConcurrency(b *testing.B)              { runFigure(b, "concurrency") }

// The index-construction benchmarks build one index per iteration over a
// 1M-row Synthetic table loaded once (colB = sigmoid(colC), 1 % noise), and
// drop it again off the clock: what CreateIndex, a TRS-Tree reorganisation
// and recovery all pay. `-benchtime=1x` is one build.
const createIndexRows = 1_000_000

func loadSyntheticForBuild(b *testing.B) (*hermitdb.Table, hermitdb.SyntheticSpec) {
	b.Helper()
	db := hermitdb.NewDB(hermitdb.PhysicalPointers)
	spec := hermitdb.SyntheticSpec{Rows: createIndexRows, Fn: hermitdb.Sigmoid, Noise: 0.01, Seed: 1}
	tb, err := db.CreateTable("syn", spec.Columns(), spec.PKCol())
	if err != nil {
		b.Fatal(err)
	}
	if err := spec.Generate(func(row []float64) error {
		_, err := tb.Insert(row)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	return tb, spec
}

func BenchmarkCreateBTreeIndex(b *testing.B) {
	tb, spec := loadSyntheticForBuild(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.CreateBTreeIndex(spec.HostCol(), false); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := tb.DropIndex(spec.HostCol(), hermitdb.KindBTree); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkCreateHermitIndex(b *testing.B) {
	tb, spec := loadSyntheticForBuild(b)
	if _, err := tb.CreateBTreeIndex(spec.HostCol(), false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.CreateHermitIndex(spec.TargetCol(), spec.HostCol()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := tb.DropIndex(spec.TargetCol(), hermitdb.KindHermit); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

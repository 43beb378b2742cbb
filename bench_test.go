// Root-level benchmarks: BenchmarkPaper has one sub-benchmark per table
// and figure of the paper's evaluation, each running that figure's slice of
// the trial grid in internal/bench. Run them all, or one, with
//
//	go test -run '^$' -bench Paper -benchmem
//	go test -run '^$' -bench 'Paper/fig4$'
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

// BenchmarkPaper runs each registered paper figure b.N times, output
// discarded.
func BenchmarkPaper(b *testing.B) {
	for _, id := range bench.PaperIDs() {
		e, _ := bench.ByID(id)
		b.Run(id, func(b *testing.B) {
			cfg := bench.Config{
				Out:        io.Discard,
				Scale:      *benchScale,
				MeasureFor: 20 * time.Millisecond,
				Seed:       1,
				TmpDir:     b.TempDir(),
			}
			for i := 0; i < b.N; i++ {
				if err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The index-construction benchmarks build one index per iteration over a
// 1M-row Synthetic table loaded once (colB = sigmoid(colC), 1 % noise), and
// drop it again off the clock: what CreateIndex, a TRS-Tree reorganisation
// and recovery all pay. `-benchtime=1x` is one build. Each also reports
// the built index's footprint per row (index-B/row).
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

// reportIndexBytes reports the footprint of the index a build made, as
// Memory() counts it, per row of the table: what the paper's memory
// figures and the repository benchmark's index_bytes_per_row compare.
func reportIndexBytes(b *testing.B, bytes uint64) {
	b.ReportMetric(float64(bytes)/createIndexRows, "index-B/row")
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
		reportIndexBytes(b, tb.Memory().ExistingBytes)
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
		reportIndexBytes(b, tb.Memory().NewBytes)
		if err := tb.DropIndex(spec.TargetCol(), hermitdb.KindHermit); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

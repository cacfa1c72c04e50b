package experiments

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	cfg := Default(io.Discard)
	cfg.Scale = 0.01
	cfg.Updates = 60
	cfg.Batch = 20
	cfg.Renames = 15
	cfg.GnMin = 3
	cfg.GnMax = 5
	return cfg
}

func TestTable3Shapes(t *testing.T) {
	rows := Table3(tiny())
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.CEdges <= 0 || r.Edges <= 0 {
			t.Fatalf("%s: empty row", r.Name)
		}
		if r.RatioPct <= 0 || r.RatioPct > 100 {
			t.Fatalf("%s: ratio %.2f out of range", r.Name, r.RatioPct)
		}
	}
}

func TestStaticComparableCompressors(t *testing.T) {
	rows := Static(tiny())
	for _, r := range rows {
		// All three compressors must land within a factor ~2 of each
		// other (paper: "hardly a difference").
		if r.GrammarRePairTree > 2*r.TreeRePair+40 || r.TreeRePair > 2*r.GrammarRePairTree+40 {
			t.Errorf("%s: TreeRP=%d vs GrRP/tree=%d differ too much", r.Name, r.TreeRePair, r.GrammarRePairTree)
		}
		if r.GrammarRePairGrammar > 2*r.TreeRePair+40 {
			t.Errorf("%s: GrRP/grammar=%d vs TreeRP=%d", r.Name, r.GrammarRePairGrammar, r.TreeRePair)
		}
	}
}

func TestFig2BlowUpBounded(t *testing.T) {
	rows := Fig2(tiny())
	for _, r := range rows {
		if r.BlowUp < 0.9 {
			t.Errorf("%s: blow-up %.2f below 1", r.Name, r.BlowUp)
		}
		if r.BlowUp > 5 {
			t.Errorf("%s: blow-up %.2f too large for the paper's claim (≈2 worst case)", r.Name, r.BlowUp)
		}
	}
}

func TestFig3OptimizationShape(t *testing.T) {
	cfg := tiny()
	cfg.GnMin, cfg.GnMax = 4, 9
	rows := Fig3(cfg)
	first, last := rows[0], rows[len(rows)-1]
	// Optimized blow-up must stay roughly flat; non-optimized must grow
	// with the string.
	if last.OptBlowUp > 4*first.OptBlowUp {
		t.Errorf("optimized blow-up grows: %.2f -> %.2f", first.OptBlowUp, last.OptBlowUp)
	}
	if last.NonBlowUp < 4*last.OptBlowUp {
		t.Errorf("non-optimized blow-up (%.2f) should far exceed optimized (%.2f) at n=%d",
			last.NonBlowUp, last.OptBlowUp, last.N)
	}
	for _, r := range rows {
		if r.OptFinal > r.InputEdges+8 {
			t.Errorf("n=%d: optimized final %d should not exceed input %d", r.N, r.OptFinal, r.InputEdges)
		}
	}
}

func TestDynamicOverheads(t *testing.T) {
	c, _ := datasets.ByShort("XM")
	cfg := tiny()
	res, err := Dynamic(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != cfg.Updates/cfg.Batch {
		t.Fatalf("want %d points, got %d", cfg.Updates/cfg.Batch, len(res.Points))
	}
	for _, p := range res.Points {
		// The recompressed grammar must track scratch closely; naive must
		// never be better than recompressed.
		if p.RecompOverhead > 1.5 {
			t.Errorf("updates=%d: recompression overhead %.3f too large", p.Updates, p.RecompOverhead)
		}
		if p.NaiveSize < p.RecompSize {
			t.Errorf("updates=%d: naive (%d) smaller than recompressed (%d)?", p.Updates, p.NaiveSize, p.RecompSize)
		}
	}
}

// TestDynamicGolden pins the exact Figs. 4/5 series of the tiny
// configuration: |G| of the never-recompressed track, of the track
// recompressed through Store.Recompress every batch, and of TreeRePair
// from scratch, after each batch. Any change to the update path, the
// Store's recompression engine or GrammarRePair that moves a single
// edge shows here.
func TestDynamicGolden(t *testing.T) {
	golden := map[string][][4]int{ // {updates, naive, recomp, scratch}
		"XM": {{20, 591, 424, 427}, {40, 758, 406, 407}, {60, 829, 354, 355}},
		"EW": {{20, 264, 144, 129}, {40, 352, 126, 97}, {60, 435, 71, 32}},
	}
	for short, want := range golden {
		c, _ := datasets.ByShort(short)
		res, err := Dynamic(tiny(), c)
		if err != nil {
			t.Fatal(err)
		}
		var got [][4]int
		for _, p := range res.Points {
			got = append(got, [4]int{p.Updates, p.NaiveSize, p.RecompSize, p.ScratchSize})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: series %v, want %v", short, got, want)
		}
	}
}

func TestDynamicExtremeCorpus(t *testing.T) {
	c, _ := datasets.ByShort("EW")
	cfg := tiny()
	cfg.Updates = 40
	cfg.Batch = 20
	res, err := Dynamic(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Points[len(res.Points)-1]
	// Exponential corpora: naive updates destroy compression (overhead
	// far above recompressed).
	if last.NaiveOverhead < last.RecompOverhead {
		t.Errorf("naive %.2f should exceed recomp %.2f", last.NaiveOverhead, last.RecompOverhead)
	}
}

func TestFig6RowsComplete(t *testing.T) {
	cfg := tiny()
	rows, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.GrammarRePair <= 0 || r.TreeRePair <= 0 || r.Decompress < 0 {
			t.Fatalf("%s: missing timings", r.Name)
		}
		if r.SpaceGrammarRP <= 0 || r.SpaceUDC <= 0 {
			t.Fatalf("%s: missing space numbers", r.Name)
		}
		// GrammarRePair never materializes the tree, so its peak space
		// must be below udc's for every corpus.
		if r.SpaceGrammarRP >= r.SpaceUDC {
			t.Errorf("%s: GrammarRePair space %d not below udc %d", r.Name, r.SpaceGrammarRP, r.SpaceUDC)
		}
	}
}

func TestAllPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	var b strings.Builder
	cfg := tiny()
	cfg.Out = &b
	if err := All(cfg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table III", "Fig. 2", "Fig. 3", "Fig. 4/5", "Fig. 6"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestAblationShapes(t *testing.T) {
	rows := Ablation(tiny())
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// Greedy RePair is not strictly monotone in k_in, so allow a few
		// percent of noise; what must hold is the regime: k_in = 2 never
		// helps meaningfully and k_in = 8 never hurts meaningfully.
		slack := r.SizeKin4/20 + 8
		if r.SizeKin2 < r.SizeKin4-slack {
			t.Errorf("%s: kin=2 (%d) beat kin=4 (%d)?", r.Name, r.SizeKin2, r.SizeKin4)
		}
		if r.SizeKin8 > r.SizeKin4+slack {
			t.Errorf("%s: kin=8 (%d) worse than kin=4 (%d)?", r.Name, r.SizeKin8, r.SizeKin4)
		}
		// The optimization must never make the intermediate grammar
		// meaningfully larger (export rules cost a few edges of overhead
		// when there is nothing to share).
		if r.OptMax > r.NonMax+slack {
			t.Errorf("%s: optimized max %d above non-optimized %d", r.Name, r.OptMax, r.NonMax)
		}
	}
}

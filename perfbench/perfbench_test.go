package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sltgrammar "repro"
	"repro/internal/update"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, and answers correctly.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, wl := range []string{"ingest", "tiered"} {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := run(options{workload: wl, seed: 3, seconds: 1.5, trace: trace, workdir: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", wl, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", wl, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !strings.Contains(out.String(), "stamp: workload="+wl) {
				t.Errorf("%s trace=%v: no host stamp in the output", wl, trace)
			}
		}
	}
}

// TestOracleRejectsTampering checks that each oracle rejects an answer
// changed on purpose.
func TestOracleRejectsTampering(t *testing.T) {
	b := &bench{o: options{seed: 5}, sp: specs["tiered"], w: &bytes.Buffer{}}
	b.sp.inputs, b.sp.docs, b.sp.streamOps = 2, 2, 0
	if err := b.gen(); err != nil {
		t.Fatal(err)
	}

	// Reads: the original label and both fresh labels are allowed at a
	// renamed position; anything else is not.
	in, plan := b.docs[0], b.plans[0]
	var pos int64
	var fresh [2]string
	for pos, fresh = range plan.fresh {
		break
	}
	check := b.readCheck(nil)
	for _, ok := range []string{in.labels[pos], fresh[0], fresh[1]} {
		if !check(0, pos, ok) {
			t.Errorf("label %q at %d rejected", ok, pos)
		}
	}
	for _, bad := range []string{"tampered", in.labels[pos] + "x"} {
		if check(0, pos, bad) {
			t.Errorf("tampered label %q at %d accepted", bad, pos)
		}
	}
	if _, renamed := plan.fresh[in.elems[0]]; !renamed && check(0, in.elems[0], fresh[0]) {
		t.Errorf("a fresh label accepted at position %d, which no rename addresses", in.elems[0])
	}

	// Final state: a grammar with one element renamed no longer derives
	// the reference tree.
	g, _ := sltgrammar.Compress(in.final)
	if msg := sameTree(g, in.final); msg != "" {
		t.Fatalf("untampered grammar rejected: %s", msg)
	}
	bad := g.Clone()
	if err := sltgrammar.Apply(bad, update.Op{Kind: update.Rename, Pos: in.elems[len(in.elems)/2], Label: "tampered"}); err != nil {
		t.Fatal(err)
	}
	if sameTree(bad, in.final) == "" {
		t.Error("tampered grammar accepted")
	}

	// checkIngest counts a tampered document as failed.
	refs := []*ingestRef{{doc: in.final, labels: in.labels, elems: in.elems}, {doc: b.docs[1].final, labels: b.docs[1].labels, elems: b.docs[1].elems}}
	g1, _ := sltgrammar.Compress(b.docs[1].final)
	snaps := map[string]*sltgrammar.Grammar{b.ids[0]: bad, b.ids[1]: g1}
	b.checkIngest(func(id string) (*sltgrammar.Grammar, error) { return snaps[id], nil }, refs, nil)
	if b.failed == 0 || len(b.wrong) != 1 || !strings.Contains(b.wrong[0], b.ids[0]) {
		t.Errorf("checkIngest: failed=%d wrong=%q, want exactly %s rejected", b.failed, b.wrong, b.ids[0])
	}
}

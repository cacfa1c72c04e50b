package main

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/datasets"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// docInput is one corpus document and, where the workload replays one,
// the insert-heavy stream that rebuilds it from a seed document.
type docInput struct {
	seed   *xmltree.Document // start state (the corpus document itself when there is no stream)
	final  *xmltree.Document // the corpus document
	stream []update.Op       // seed -> final
	labels []string          // preorder labels of final, ⊥ leaves included
	elems  []int64           // preorder positions of final's elements
}

// The documents and the writes are pinned, as in internal/benchsuite:
// document d is generated with corpusSeed+d, its update stream drawn
// with streamSeed+d and its rename cycle with renameSeed+d, and the
// fleet interleave of the streams with scheduleSeed. The run's seed
// draws the rest: which documents are read and renamed, and the read
// positions.
const (
	corpusSeed   = 1
	streamSeed   = 11
	renameSeed   = 13
	scheduleSeed = 17
)

// genDocs generates n documents of a corpus. With ops > 0 each
// document gets an inverse-seeded stream of ops operations with
// insertPct percent inserts (the paper's 90), replaying a seed
// document back to the corpus document. Generation runs on two
// goroutines.
func genDocs(short string, scale float64, n, ops, insertPct int) ([]*docInput, error) {
	c, ok := datasets.ByShort(short)
	if !ok {
		return nil, fmt.Errorf("unknown corpus %q", short)
	}
	docs := make([]*docInput, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := w; d < n; d += workers {
				u := c.Generate(scale, corpusSeed+int64(d))
				in := &docInput{}
				if ops > 0 {
					seq, err := workload.Updates(u, ops, insertPct, streamSeed+int64(d))
					if err != nil {
						errs[d] = fmt.Errorf("stream of document %d: %w", d, err)
						return
					}
					in.seed, in.final, in.stream = seq.Seed, seq.Final, seq.Ops
				} else {
					in.final = u.Binary()
					in.seed = in.final
				}
				in.labels, in.elems = preorder(in.final)
				docs[d] = in
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// preorder lists a binary document's labels in preorder and the
// positions of its elements (non-⊥ nodes).
func preorder(d *xmltree.Document) (labels []string, elems []int64) {
	d.Root.Walk(func(n *xmltree.Node) bool {
		if !n.Label.IsBottom() {
			elems = append(elems, int64(len(labels)))
		}
		labels = append(labels, d.Syms.Name(n.Label.ID))
		return true
	})
	return labels, elems
}

// renamePlan is the position-stable rename cycle of one document: the
// Fig. 6 workload. Renames never move preorder positions, so the cycle
// can repeat for as long as a run lasts. Each position alternates
// between two fresh labels, so every rename changes the document.
type renamePlan struct {
	batches [2][][]update.Op    // [flip][batch]
	fresh   map[int64][2]string // position -> the two labels a rename may set
}

func newRenamePlan(d *xmltree.Document, n, batch int, seed int64) *renamePlan {
	base := workload.Renames(d, n, seed)
	p := &renamePlan{fresh: make(map[int64][2]string, len(base))}
	for i, op := range base {
		p.fresh[op.Pos] = [2]string{fmt.Sprintf("rnA%d", i), fmt.Sprintf("rnB%d", i)}
	}
	for flip := 0; flip < 2; flip++ {
		for off := 0; off < len(base); off += batch {
			var b []update.Op
			for _, op := range base[off:min(off+batch, len(base))] {
				b = append(b, update.Op{Kind: update.Rename, Pos: op.Pos, Label: p.fresh[op.Pos][flip]})
			}
			p.batches[flip] = append(p.batches[flip], b)
		}
	}
	return p
}

// batch returns the k-th batch a document's writer sends.
func (p *renamePlan) batch(k int) []update.Op {
	nb := len(p.batches[0])
	return p.batches[(k/nb)%2][k%nb]
}

// allowed reports whether label may be read at pos of a document whose
// original labels are orig: the original label, or one a rename
// addressing pos could have set.
func (p *renamePlan) allowed(orig []string, pos int64, label string) bool {
	if pos < 0 || pos >= int64(len(orig)) {
		return false
	}
	if orig[pos] == label {
		return true
	}
	f, ok := p.fresh[pos]
	return ok && (f[0] == label || f[1] == label)
}

// zipfPicker draws document indices with Zipf-skewed popularity:
// document 0 is the hottest.
type zipfPicker struct{ z *rand.Zipf }

func newZipfPicker(rng *rand.Rand, n int) zipfPicker {
	return zipfPicker{rand.NewZipf(rng, zipfSkew, 1, uint64(n-1))}
}

func (z zipfPicker) next() int { return int(z.z.Uint64()) }

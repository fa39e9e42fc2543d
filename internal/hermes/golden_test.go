package hermes

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// searchGoldenPath pins Store.Search's neighbour IDs and the exact bits of
// their scores. The distance kernels promise bit-identical results across
// their SIMD and pure-Go paths and across kernel rewrites, so any change to
// this file's content means a kernel changed its floating-point association.
const searchGoldenPath = "testdata/search_golden.txt"

// searchGoldenText builds two stores on fixed seeds and renders 200 queries'
// results per store, one line per query. The SQ8 store at dim 36 (Build
// always quantizes to SQ8) runs the 8-dim SQ8 blocks plus the 4-dim tail.
// The Flat store at dim 30 (BuildNaiveSplit honours its quantBits) leaves
// two dims over every 4-lane L2 block, in k-means, in probe selection and in
// the scan. The deep nProbe of 16 keeps probe selection partial in the deep
// phase.
func searchGoldenText(t testing.TB) string {
	t.Helper()
	var b strings.Builder
	for _, tc := range []struct {
		dim, bits int
	}{{36, 8}, {30, 0}} {
		c, err := corpus.Generate(corpus.Spec{NumChunks: 4000, Dim: tc.dim, NumTopics: 12, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var st *Store
		if tc.bits == 8 {
			st, err = Build(c.Vectors, BuildOptions{NumShards: 6, QuantBits: tc.bits})
		} else {
			st, err = BuildNaiveSplit(c.Vectors, 6, tc.bits)
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "case dim=%d bits=%d seed_used=%d sizes=%v\n", tc.dim, tc.bits, st.SeedUsed, st.Sizes())
		p := Params{K: 5, SampleNProbe: 8, DeepNProbe: 16, DeepClusters: 3}
		qs := c.Queries(200, 11)
		for i := 0; i < qs.Vectors.Len(); i++ {
			res, _ := st.Search(qs.Vectors.Row(i), p)
			fmt.Fprintf(&b, "q%d", i)
			for _, n := range res {
				fmt.Fprintf(&b, " %d:%08x", n.ID, math.Float32bits(n.Score))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestSearchGolden(t *testing.T) {
	want, err := os.ReadFile(searchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := searchGoldenText(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, searchGoldenPath, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(gl), searchGoldenPath, len(wl))
}

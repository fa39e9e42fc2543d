// Package kmeans implements Lloyd's algorithm with k-means++ seeding, the
// clustering primitive behind both IVF coarse quantizers and Hermes'
// datastore disaggregation step.
//
// Two features come directly from the paper's Section 4.1: training on a
// small random subset of the corpus (1-2% tracks the full clustering well)
// and sweeping several RNG seeds to pick the run with the lowest cluster-size
// imbalance, measured as the ratio of the largest to smallest cluster.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/vec"
)

// Config controls a k-means run.
type Config struct {
	K          int   // number of clusters; must be >= 1
	MaxIters   int   // Lloyd iterations; default 25
	Seed       int64 // RNG seed for init and subset sampling; default 0
	PlusPlus   bool  // k-means++ init (otherwise uniform random points)
	SampleSize int   // if >0 and < n, train on that many sampled points
	Tolerance  float64
	// Rand, when non-nil, supplies the generator directly and Seed is
	// ignored. The default is rand.New(rand.NewSource(Seed)), so two runs
	// with equal configs are bit-identical. BestSeed ignores Rand: its
	// whole point is sweeping Seed.
	Rand *rand.Rand `json:"-"`
}

// rng returns the injected generator or a deterministic one from Seed.
func (c Config) rng() *rand.Rand {
	if c.Rand != nil {
		return c.Rand
	}
	return rand.New(rand.NewSource(c.Seed))
}

func (c Config) withDefaults() Config {
	if c.MaxIters <= 0 {
		c.MaxIters = 25
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-4
	}
	return c
}

// Result holds a trained clustering.
type Result struct {
	Centroids *vec.Matrix // K x dim
	// Assign maps each training row to its centroid; only filled for the
	// rows that were actually used for training (the subset when
	// SampleSize is set).
	Assign []int
	// Sizes is the per-cluster count over the training rows.
	Sizes []int
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia float64
	// Iters is the number of Lloyd iterations performed.
	Iters int
}

// Imbalance returns max(size)/min(size) over non-empty accounting of all
// clusters; if any cluster is empty it returns +Inf. This is the imbalance
// proxy the paper uses when choosing a seed.
func (r *Result) Imbalance() float64 {
	return ImbalanceRatio(r.Sizes)
}

// ImbalanceRatio computes max/min over the sizes; empty input or any zero
// size yields +Inf.
func ImbalanceRatio(sizes []int) float64 {
	if len(sizes) == 0 {
		return math.Inf(1)
	}
	minS, maxS := sizes[0], sizes[0]
	for _, s := range sizes[1:] {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if minS == 0 {
		return math.Inf(1)
	}
	return float64(maxS) / float64(minS)
}

// Train runs k-means on the rows of data.
func Train(data *vec.Matrix, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := data.Len()
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be >= 1, got %d", cfg.K)
	}
	if n < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points < K=%d", n, cfg.K)
	}
	rng := cfg.rng()

	train := data
	if cfg.SampleSize > 0 && cfg.SampleSize < n {
		if cfg.SampleSize < cfg.K {
			return nil, fmt.Errorf("kmeans: SampleSize %d < K=%d", cfg.SampleSize, cfg.K)
		}
		train = sampleRows(data, cfg.SampleSize, rng)
	}
	nt := train.Len()

	centroids := initCentroids(train, cfg.K, cfg.PlusPlus, rng)
	assign := make([]int, nt)
	sizes := make([]int, cfg.K)
	prevInertia := math.Inf(1)
	var inertia float64
	iters := 0

	for iter := 0; iter < cfg.MaxIters; iter++ {
		iters = iter + 1
		// Assignment step.
		inertia = 0
		for i := range sizes {
			sizes[i] = 0
		}
		for i := 0; i < nt; i++ {
			c, d := centroids.ArgMinL2(train.Row(i))
			assign[i] = c
			sizes[c]++
			inertia += float64(d)
		}
		// Update step.
		sums := vec.NewMatrix(cfg.K, train.Dim)
		for i := 0; i < nt; i++ {
			vec.Add(sums.Row(assign[i]), train.Row(i))
		}
		for c := 0; c < cfg.K; c++ {
			if sizes[c] == 0 {
				// Empty-cluster repair: reseed from the point
				// farthest from its centroid.
				reseedEmpty(centroids, c, train, assign, rng)
				continue
			}
			row := sums.Row(c)
			vec.Scale(row, 1/float32(sizes[c]))
			copy(centroids.Row(c), row)
		}
		if prevInertia-inertia < cfg.Tolerance*math.Max(1, prevInertia) {
			break
		}
		prevInertia = inertia
	}

	// Final assignment against the final centroids so Assign/Sizes/Inertia
	// are mutually consistent.
	inertia = 0
	for i := range sizes {
		sizes[i] = 0
	}
	for i := 0; i < nt; i++ {
		c, d := centroids.ArgMinL2(train.Row(i))
		assign[i] = c
		sizes[c]++
		inertia += float64(d)
	}

	return &Result{
		Centroids: centroids,
		Assign:    assign,
		Sizes:     sizes,
		Inertia:   inertia,
		Iters:     iters,
	}, nil
}

// AssignAll maps every row of data to its nearest centroid. Used after
// subset training to partition the full corpus.
func AssignAll(data *vec.Matrix, centroids *vec.Matrix) []int {
	out := make([]int, data.Len())
	for i := 0; i < data.Len(); i++ {
		out[i], _ = centroids.ArgMinL2(data.Row(i))
	}
	return out
}

// BestSeed runs k-means with each of the given seeds and returns the result
// (and winning seed) with the lowest cluster-size imbalance, breaking ties by
// inertia. This reproduces the paper's multi-seed imbalance minimization.
func BestSeed(data *vec.Matrix, cfg Config, seeds []int64) (*Result, int64, error) {
	if len(seeds) == 0 {
		return nil, 0, fmt.Errorf("kmeans: BestSeed requires at least one seed")
	}
	var best *Result
	var bestSeed int64
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		c.Rand = nil // the sweep must re-derive the RNG from each seed
		r, err := Train(data, c)
		if err != nil {
			return nil, 0, err
		}
		if best == nil || less(r, best) {
			best, bestSeed = r, seed
		}
	}
	return best, bestSeed, nil
}

func less(a, b *Result) bool {
	ia, ib := a.Imbalance(), b.Imbalance()
	if ia != ib {
		return ia < ib
	}
	return a.Inertia < b.Inertia
}

func sampleRows(data *vec.Matrix, k int, rng *rand.Rand) *vec.Matrix {
	idx := rng.Perm(data.Len())[:k]
	out := vec.NewMatrix(k, data.Dim)
	for i, j := range idx {
		copy(out.Row(i), data.Row(j))
	}
	return out
}

func initCentroids(data *vec.Matrix, k int, plusPlus bool, rng *rand.Rand) *vec.Matrix {
	n := data.Len()
	centroids := vec.NewMatrix(k, data.Dim)
	if !plusPlus {
		for i, j := range rng.Perm(n)[:k] {
			copy(centroids.Row(i), data.Row(j))
		}
		return centroids
	}
	// k-means++: first centroid uniform, then points weighted by squared
	// distance to the nearest chosen centroid.
	copy(centroids.Row(0), data.Row(rng.Intn(n)))
	dists := make([]float64, n)
	nearestDists(dists, data, centroids.Row(0), true)
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range dists {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var cum float64
			pick = n - 1
			for i, d := range dists {
				cum += d
				if cum >= target {
					pick = i
					break
				}
			}
		}
		copy(centroids.Row(c), data.Row(pick))
		nearestDists(dists, data, centroids.Row(c), false)
	}
	return centroids
}

// nearestDistsBlock is how many rows nearestDists scores per
// vec.L2SquaredBatch call; the block lives on the stack.
const nearestDistsBlock = 64

// nearestDists scores every row of data against centroid and stores the
// distance in dists[i] when first is set, or when it is below dists[i]
// otherwise: the k-means++ distance to the nearest chosen centroid.
func nearestDists(dists []float64, data *vec.Matrix, centroid []float32, first bool) {
	var block [nearestDistsBlock]float32
	n := data.Len()
	for b0 := 0; b0 < n; b0 += nearestDistsBlock {
		bn := min(n-b0, nearestDistsBlock)
		vec.L2SquaredBatch(centroid, data.Data()[b0*data.Dim:], bn, block[:bn])
		for i, d := range block[:bn] {
			if fd := float64(d); first || fd < dists[b0+i] {
				dists[b0+i] = fd
			}
		}
	}
}

func reseedEmpty(centroids *vec.Matrix, c int, data *vec.Matrix, assign []int, rng *rand.Rand) {
	// Pick the training point farthest from its current centroid.
	worst, worstDist := rng.Intn(data.Len()), float32(-1)
	for i := 0; i < data.Len(); i++ {
		d := vec.L2Squared(data.Row(i), centroids.Row(assign[i]))
		if d > worstDist {
			worst, worstDist = i, d
		}
	}
	copy(centroids.Row(c), data.Row(worst))
}

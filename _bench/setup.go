package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/corpus"
	"repro/internal/distsearch"
	"repro/internal/hermes"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// spec is one workload's corpus, cluster shape and offered load.
type spec struct {
	name   string
	chunks int
	dim    int
	// tcp serves the store through distsearch.LaunchLocal over loopback.
	tcp bool
	// openRate is the fixed open-loop read rate (per second) of the traced
	// run's open phase.
	openRate float64
	// mixedReads and mixedWrites are the mixed suite's open-loop reads and
	// Poisson replaces per second. On the 2-vCPU reference host point-tcp's
	// cluster holds 1500 reads/s beside 100 writes/s (batches of 5-6, read
	// p50 5 ms, also under 6 % hypervisor steal). batch-local's dim-128
	// cluster held 1000 beside 70 on a quiet host but fell behind under 6 %
	// steal (read p50 50 ms), so it is offered 600 beside 40 (batches of 3,
	// read p50 8 ms under 4 % steal).
	mixedReads, mixedWrites float64
	// setups is how many times an end-to-end run sets the workload up,
	// each from a corpus seed of its own; setup_s is their median, and
	// each serves rounds recorded rounds. batch-local's set-up takes 5-6 s,
	// so it is set up four times to keep the run within its time budget.
	setups, rounds int
	// slo is the ladder slo_qps is searched on; its limit applies to p99.
	slo ladder
	// recallFloor fails the run when recall_at_5 drops below it: a few
	// hundredths under the lowest value seen over seeds 1-10.
	recallFloor float64
}

const (
	numTopics = 100
	numShards = 10
	// queryPool is the number of distinct load queries; requests cycle
	// through them, so no two in flight share a row while fewer than
	// queryPool are outstanding.
	queryPool = 4096
	// checkQueries is the number of queries recall and result equality are
	// checked on.
	checkQueries = 200
	// batchSize is batch-local's SearchBatch size (the paper evaluates
	// batches of 32-256).
	batchSize = 64
	// maxBatch and maxWait configure the mixed suite's FIFO batcher.
	maxBatch = 32
	maxWait  = 2 * time.Millisecond
	// compactEvery is the mixed suite's Compact period.
	compactEvery = time.Second
)

var specs = []spec{
	{
		name: "point-tcp", chunks: 20000, dim: 32, tcp: true,
		openRate:   500,
		mixedReads: 1500, mixedWrites: 100,
		setups: 5, rounds: 4,
		slo:         ladder{lo: 800, hi: 3200, ratio: 1.05, limit: 50 * time.Millisecond},
		recallFloor: 0.92,
	},
	{
		name: "batch-local", chunks: 20000, dim: 128,
		openRate:   400,
		mixedReads: 600, mixedWrites: 40,
		setups: 4, rounds: 5,
		slo:         ladder{lo: 600, hi: 3000, ratio: 1.05, limit: 50 * time.Millisecond},
		recallFloor: 0.88,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// params is the paper's evaluation configuration (K 5, sample nProbe 8,
// deep nProbe 128, 3 deep shards), spelled out so a change to the program's
// defaults cannot silently change what is measured.
var params = hermes.Params{K: 5, SampleNProbe: 8, DeepNProbe: 128, DeepClusters: 3}

// env is one set-up workload: the system under test plus its inputs.
type env struct {
	spec    spec
	seed    int64
	corpus  *corpus.Corpus
	store   *hermes.Store
	cluster *distsearch.LocalCluster
	coord   *distsearch.Coordinator
	queries [][]float32 // load queries, cycled by request number
	check   [][]float32 // recall / equality check queries
}

var quietLog = log.New(io.Discard, "", 0)

// setup generates the corpus, builds the store with SQ8 shards and, for the
// TCP workloads, launches the nodes and dials the coordinator. Everything
// derives from seed.
func setup(s spec, seed int64) (*env, error) {
	c, err := corpus.Generate(corpus.Spec{NumChunks: s.chunks, Dim: s.dim, NumTopics: numTopics, Seed: seed})
	if err != nil {
		return nil, err
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: numShards, QuantBits: 8})
	if err != nil {
		return nil, err
	}
	e := &env{spec: s, seed: seed, corpus: c, store: st}
	if s.tcp {
		if e.cluster, e.coord, err = launch(st); err != nil {
			return nil, err
		}
	}
	e.queries = rows(c.Queries(queryPool, seed+1).Vectors)
	e.check = rows(c.Queries(checkQueries, seed+2).Vectors)
	return e, nil
}

// launch serves every shard of st on loopback TCP and dials a coordinator
// with a private telemetry registry, so repeated set-ups do not share
// collectors.
func launch(st *hermes.Store) (*distsearch.LocalCluster, *distsearch.Coordinator, error) {
	lc, err := distsearch.LaunchLocal(st, quietLog)
	if err != nil {
		return nil, nil, err
	}
	co, err := distsearch.DialOpts(lc.Addrs(), distsearch.DialOptions{Timeout: 5 * time.Second, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		_ = lc.Close()
		return nil, nil, err
	}
	return lc, co, nil
}

func (e *env) close() {
	if e.coord != nil {
		_ = e.coord.Close()
	}
	if e.cluster != nil {
		_ = e.cluster.Close()
	}
}

func rows(m *vec.Matrix) [][]float32 {
	out := make([][]float32, m.Len())
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// Command hermesbench is the layered benchmark of the Hermes serving stack.
//
//	hermesbench --workload point-tcp|batch-local --seed N --seconds S --trace 0|1
//
// It builds the workload's inputs from the seed, measures the untraced
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// and layer replays (--trace 1), checks that the answers are correct, and
// prints one JSON object as its last line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/vec"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation prints: every metric with its unit, and
// the attempted and failed operations of every phase. A metric measured in
// several rounds reports the median of its rounds.
type report struct {
	names   []string
	units   map[string]string
	samples map[string][]float64
	// lat holds one round's raw latency samples (ms) by metric prefix, in
	// the order first kept, for percentiles pooled over rounds.
	latPrefixes []string
	lat         map[string][]float64
	attempted   int
	failed      int
}

func newReport() *report {
	return &report{units: make(map[string]string), samples: make(map[string][]float64), lat: make(map[string][]float64)}
}

// keepLatencies records a round's latency samples (ms) under prefix.
func (r *report) keepLatencies(prefix string, msVals []float64) {
	if _, ok := r.lat[prefix]; !ok {
		r.latPrefixes = append(r.latPrefixes, prefix)
	}
	r.lat[prefix] = append(r.lat[prefix], msVals...)
}

// set records one round's value of a metric.
func (r *report) set(name, unit string, v float64) {
	if _, ok := r.units[name]; !ok {
		r.names = append(r.names, name)
		r.units[name] = unit
	}
	r.samples[name] = append(r.samples[name], v)
}

func (r *report) metrics() map[string]metric {
	out := make(map[string]metric, len(r.names))
	for _, n := range r.names {
		out[n] = metric{median(r.samples[n]), r.units[n]}
	}
	return out
}

func (r *report) phase(name string, attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
	fmt.Printf("phase %-22s attempted %7d failed %d\n", name, attempted, failed)
}

func (r *report) note(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "point-tcp or batch-local")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "measurement budget of the run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "hermesbench:", err)
		os.Exit(1)
	}
}

// spanDir is where traced runs write their spans, inside the checkout's
// build directory.
const spanDir = ".bench_build/spans"

func run(workload string, seed int64, seconds int, traced bool) error {
	s, err := specByName(workload)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	rep := newReport()
	b := &bench{seconds: time.Duration(seconds) * time.Second, rep: rep, chk: &checks{}, workers: runtime.GOMAXPROCS(0)}
	defer func() {
		if b.e != nil {
			b.e.close()
		}
	}()
	if traced {
		if b.e, err = setup(s, seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		printMeta(b.e)
		err = b.tracedRun(spanDir)
	} else {
		err = b.endToEnd(s, seed)
	}
	if err != nil {
		return err
	}
	for _, f := range b.chk.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	vals := rep.metrics()
	for _, n := range rep.names {
		fmt.Printf("metric %-40s %14.4f %-6s rounds %.4g\n", n, vals[n].Value, vals[n].Unit, rep.samples[n])
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.chk.ok() && rep.failed == 0, rep.attempted, rep.failed, vals})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !b.chk.ok() {
		return fmt.Errorf("correctness check failed")
	}
	if rep.failed > 0 {
		return fmt.Errorf("%d operations failed", rep.failed)
	}
	return nil
}

// printMeta records what actually ran, not what was asked for: each
// shard's quantizer, nlist and size as built, plus the run's seed, CPU count
// and toolchain.
func printMeta(e *env) {
	fmt.Printf("workload %s seed %d chunks %d dim %d shards %d nproc %d gomaxprocs %d %s\n",
		e.spec.name, e.seed, e.spec.chunks, e.spec.dim, len(e.store.Shards), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("params K %d sample nProbe %d deep nProbe %d deep shards %d; build requested QuantBits 8\n",
		params.K, params.SampleNProbe, params.DeepNProbe, params.DeepClusters)
	for i, sh := range e.store.Shards {
		fmt.Printf("shard %d quantizer %s nlist %d size %d\n", i, sh.Index.QuantizerName(), sh.Index.NList(), sh.Index.Len())
	}
}

func (b *bench) batchMatrix(i int) *vec.Matrix {
	return vec.MatrixFromRows(b.batchRows(i, batchSize))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

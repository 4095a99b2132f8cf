package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"metricdb"
	"metricdb/internal/dataset"
)

// inputs are everything a run needs besides the system under test: the
// items, the query pool and, once computed, the reference answers.
type inputs struct {
	items []metricdb.Item
	// dir is the stored dataset directory (kindStored only).
	dir string
	// pool holds the query batches.
	pool [][]metricdb.Vector
	// refs[b][q] is the reference answer of pool[b][q].
	refs [][][]metricdb.Answer
	// dbscan is the reference clustering (kindDBSCAN only).
	dbscan *dbscanRef
}

// makeInputs generates the items and query pool of cfg from seed and,
// for stored workloads, writes the dataset under dir.
func makeInputs(cfg config, seed int64, dir string) (*inputs, error) {
	items, err := generate(cfg, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{items: items}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	switch cfg.kind {
	case kindBatch:
		in.pool = randomBatches(rng, items, cfg.pool, cfg.m)
	case kindStored:
		in.pool = dependentBatches(rng, items, cfg.pool, cfg.m, cfg.k)
		in.dir = filepath.Join(dir, "dataset")
		// NoSync: the dataset is the run's input, written once per run
		// and read back through the OS page cache; fsync would only slow
		// input preparation.
		if err := dataset.SaveDir(in.dir, items, dataset.SaveOptions{NoSync: true}); err != nil {
			return nil, fmt.Errorf("writing stored dataset: %w", err)
		}
	}
	return in, nil
}

// single maps the i-th single query of an open loop to its batch and
// position in the pool, cycling through every query of every batch.
func (in *inputs) single(i int) (b, q int) {
	m := len(in.pool[0])
	return (i / m) % len(in.pool), i % m
}

// computeRefs fills in the reference answers. It runs after set-up and
// the heap measurement and before the timed loop.
func (in *inputs) computeRefs(cfg config) {
	if cfg.kind == kindDBSCAN {
		in.dbscan = dbscanExhaustive(in.items, cfg.eps, cfg.minPts)
		return
	}
	in.refs = knnRefs(in.items, in.pool, cfg.k)
}

func generate(cfg config, seed int64) ([]metricdb.Item, error) {
	switch cfg.data {
	case nearUniform:
		return dataset.NearUniform(seed, cfg.n, cfg.dim, 8, 0.01)
	case clustered8:
		return dataset.Clustered(dataset.ClusteredConfig{
			Seed: seed, N: cfg.n, Dim: cfg.dim, Clusters: 6, Spread: 0.03, NoiseFraction: 0.08,
		})
	case image64:
		return dataset.Clustered(dataset.ClusteredConfig{
			Seed: seed, N: cfg.n, Dim: cfg.dim, Clusters: 8, Spread: 0.12, Histogram: true,
		})
	}
	return nil, fmt.Errorf("unknown data kind %d", cfg.data)
}

// randomBatches draws batches of m query objects from the database,
// distinct over the whole pool (the paper's random query objects).
func randomBatches(rng *rand.Rand, items []metricdb.Item, batches, m int) [][]metricdb.Vector {
	picked := make(map[int]bool, batches*m)
	out := make([][]metricdb.Vector, batches)
	for b := range out {
		for len(out[b]) < m {
			i := rng.Intn(len(items))
			if picked[i] {
				continue
			}
			picked[i] = true
			out[b] = append(out[b], items[i].Vec)
		}
	}
	return out
}

// dependentBatches builds batches of m dependent query objects, the
// manual-exploration stream of the paper's image workload: each batch is
// the k nearest neighbors of m/k random start objects, so its queries
// form tight spatial groups.
func dependentBatches(rng *rand.Rand, items []metricdb.Item, batches, m, k int) [][]metricdb.Vector {
	out := make([][]metricdb.Vector, batches)
	for b := range out {
		seen := make(map[metricdb.ItemID]bool, m)
		for len(out[b]) < m {
			start := items[rng.Intn(len(items))].Vec
			for _, a := range knnExhaustive(items, start, k) {
				if len(out[b]) == m {
					break
				}
				if !seen[a.ID] {
					seen[a.ID] = true
					out[b] = append(out[b], items[a.ID].Vec)
				}
			}
		}
	}
	return out
}

package main

import (
	"container/heap"
	"math"
	"sync"

	"metricdb"
)

// The reference answers come from exhaustive scans written here, outside
// the system under test. Distances are summed in index order like the
// library's Euclidean kernel, so they agree with it bit for bit; the
// checks still allow a relative rounding slack.

const distSlack = 1e-9

// euclid is the plain Euclidean distance.
func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// less orders answers by distance, then ID, as the library does.
func less(a, b metricdb.Answer) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// worstFirst is a max-heap of answers: the root is the current k-th.
type worstFirst []metricdb.Answer

func (h worstFirst) Len() int           { return len(h) }
func (h worstFirst) Less(i, j int) bool { return less(h[j], h[i]) }
func (h worstFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstFirst) Push(x any)        { *h = append(*h, x.(metricdb.Answer)) }
func (h *worstFirst) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// knnExhaustive returns the k nearest items of q by a full scan, sorted by
// distance then ID.
func knnExhaustive(items []metricdb.Item, q []float64, k int) []metricdb.Answer {
	h := make(worstFirst, 0, k+1)
	for i := range items {
		a := metricdb.Answer{ID: items[i].ID, Dist: euclid(q, items[i].Vec)}
		if len(h) < k {
			heap.Push(&h, a)
		} else if less(a, h[0]) {
			h[0] = a
			heap.Fix(&h, 0)
		}
	}
	out := make([]metricdb.Answer, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(metricdb.Answer)
	}
	return out
}

// parallelFor runs fn(i) for i in [0, n) on two goroutines and returns when
// all have finished.
func parallelFor(n int, fn func(i int)) {
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// knnRefs computes the exhaustive k-NN answers of every query of every
// batch.
func knnRefs(items []metricdb.Item, batches [][]metricdb.Vector, k int) [][][]metricdb.Answer {
	type job struct{ b, q int }
	var jobs []job
	refs := make([][][]metricdb.Answer, len(batches))
	for b, qs := range batches {
		refs[b] = make([][]metricdb.Answer, len(qs))
		for q := range qs {
			jobs = append(jobs, job{b, q})
		}
	}
	parallelFor(len(jobs), func(i int) {
		j := jobs[i]
		refs[j.b][j.q] = knnExhaustive(items, batches[j.b][j.q], k)
	})
	return refs
}

// checkKNN reports whether got is a correct k-NN answer for q: it has the
// reference's length, its distances match the reference's in order, its
// IDs are distinct, and every reported distance is the true distance of
// the reported item. Ties at the k-th distance may pick different IDs.
func checkKNN(items []metricdb.Item, q []float64, got, want []metricdb.Answer) bool {
	if len(got) != len(want) {
		return false
	}
	seen := make(map[metricdb.ItemID]bool, len(got))
	for i, a := range got {
		if !approxEqual(a.Dist, want[i].Dist) || seen[a.ID] {
			return false
		}
		seen[a.ID] = true
		if a.ID < 0 || int(a.ID) >= len(items) || !approxEqual(a.Dist, euclid(q, items[a.ID].Vec)) {
			return false
		}
	}
	return true
}

func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= distSlack*(1+math.Abs(b))
}

// dbscanRef is the exhaustive DBSCAN reference: which objects are core
// objects, their neighborhoods, and a valid labeling.
type dbscanRef struct {
	core   []bool
	nbrs   [][]int32
	labels []int
}

// dbscanExhaustive clusters items with full-scan range queries (dist <=
// eps, the object itself included), expanding clusters in index order.
func dbscanExhaustive(items []metricdb.Item, eps float64, minPts int) *dbscanRef {
	n := len(items)
	ref := &dbscanRef{core: make([]bool, n), nbrs: make([][]int32, n), labels: make([]int, n)}
	parallelFor(n, func(i int) {
		var out []int32
		for j := range items {
			if euclid(items[i].Vec, items[j].Vec) <= eps {
				out = append(out, int32(j))
			}
		}
		ref.nbrs[i] = out
		ref.core[i] = len(out) >= minPts
	})
	const unclassified = 0
	clusters := 0
	for i := 0; i < n; i++ {
		if ref.labels[i] != unclassified {
			continue
		}
		if !ref.core[i] {
			ref.labels[i] = metricdb.DBSCANNoise
			continue
		}
		clusters++
		ref.labels[i] = clusters
		seeds := []int32{int32(i)}
		for len(seeds) > 0 {
			s := seeds[0]
			seeds = seeds[1:]
			if !ref.core[s] {
				continue
			}
			for _, j := range ref.nbrs[s] {
				switch ref.labels[j] {
				case unclassified:
					ref.labels[j] = clusters
					seeds = append(seeds, j)
				case metricdb.DBSCANNoise:
					ref.labels[j] = clusters
				}
			}
		}
	}
	// Only the border check reads neighborhoods, and only those of
	// non-core objects, which are short by definition.
	for i := range ref.nbrs {
		if ref.core[i] {
			ref.nbrs[i] = nil
		}
	}
	return ref
}

// checkPartition reports whether labels is a correct DBSCAN clustering:
// the same noise objects as the reference, the same partition of the core
// objects (up to cluster numbering), and every border object in the
// cluster of one of its core neighbors. Which cluster a border object
// reachable from two clusters joins depends on processing order and is
// not checked further.
func checkPartition(ref *dbscanRef, labels []int) bool {
	if len(labels) != len(ref.labels) {
		return false
	}
	toRef := make(map[int]int)
	fromRef := make(map[int]int)
	for i, l := range labels {
		r := ref.labels[i]
		if (l == metricdb.DBSCANNoise) != (r == metricdb.DBSCANNoise) {
			return false
		}
		if !ref.core[i] {
			continue
		}
		if m, ok := toRef[l]; ok && m != r {
			return false
		}
		if m, ok := fromRef[r]; ok && m != l {
			return false
		}
		toRef[l], fromRef[r] = r, l
	}
	for i, l := range labels {
		if ref.core[i] || l == metricdb.DBSCANNoise {
			continue
		}
		ok := false
		for _, j := range ref.nbrs[i] {
			if ref.core[j] && labels[j] == l {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

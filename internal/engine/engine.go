// Package engine defines the interface between the query processor and the
// physical data organizations (sequential scan, X-tree, VA-file, pivot
// table, PM-tree).
//
// The single- and multiple-similarity-query algorithms of the paper (Figures
// 1 and 4) are engine-agnostic: they only need, per query object, an ordered
// list of relevant data pages with lower-bound distances, plus the ability
// to read pages. An index engine provides tight lower bounds (MINDIST of
// page MBRs, or pivot-based triangle-inequality bounds) and can exclude
// pages; the scan engine reports every page as relevant with lower bound
// zero, and the shared algorithm degenerates to exactly the paper's
// linear-scan variant.
//
// The contract is split in two. Engine is the long-lived, concurrency-safe
// physical organization; Prepare(q) returns a PreparedQuery — a per-query
// handle that carries whatever per-query state the engine wants to pay for
// exactly once (pivot distances d(q, p_i) for the pivot-based engines,
// scratch buffers for the VA-file) and answers all subsequent Plan /
// MinDist / MaxDist probes for that query against it. The multi-query
// processor keeps one handle per query for the lifetime of the batch, so an
// engine's per-query setup cost is amortized over every page probe the
// batch makes, not paid per probe.
package engine

import (
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// PageRef is a reference to a data page together with a lower bound on the
// distance from a specific query object to any item stored on the page.
type PageRef struct {
	ID store.PageID
	// MinDist satisfies: for every item o on the page,
	// dist(q, o) >= MinDist. Zero for the sequential scan.
	MinDist float64
}

// PreparedQuery is a per-query view of an engine. It is created once per
// query object by Engine.Prepare and answers every page-level probe for that
// query. A PreparedQuery is used by a single goroutine at a time (the
// processor's coordinator); it need not be safe for concurrent use, which
// frees implementations to memoize lazily.
type PreparedQuery interface {
	// Plan implements determine_relevant_data_pages of Figure 1: it
	// returns references to every data page that may contain an answer
	// for the prepared query at initial query distance queryDist, in
	// optimal processing order. Index engines return pages in ascending
	// MinDist order (the Hjaltason–Samet schedule, proven I/O-optimal for
	// k-NN); the scan returns all pages in physical order so that reads
	// are sequential. Each page appears at most once in a plan.
	Plan(queryDist float64) []PageRef

	// MinDist returns a lower bound on dist(q, o) for every item o on
	// page pid. The multi-query processor uses it to decide whether a
	// page loaded for one query is also relevant for another.
	MinDist(pid store.PageID) float64

	// MaxDist returns an upper bound on dist(q, o) for every item o on
	// page pid, or +Inf when the engine has no geometric knowledge (the
	// scan). A page holding at least k items therefore upper-bounds the
	// k-NN distance of q, which lets the multi-query processor bound a
	// query before any object distance has been calculated.
	MaxDist(pid store.PageID) float64
}

// Engine is a physical data organization that the query processors operate
// on. Implementations must be safe for concurrent readers; the handles
// returned by Prepare are owned by their caller.
type Engine interface {
	// Name identifies the engine in reports ("scan", "xtree", ...).
	Name() string

	// Prepare computes the per-query state for q (for pivot-based
	// engines, the distances from q to every pivot) and returns the
	// handle that serves all page probes for this query.
	Prepare(q vec.Vector) PreparedQuery

	// PageLen returns the number of items on page pid without reading it.
	PageLen(pid store.PageID) int

	// ReadPage fetches a data page through the engine's pager (buffer
	// hits cost no I/O).
	ReadPage(pid store.PageID) (*store.Page, error)

	// NumPages returns the number of data pages.
	NumPages() int

	// NumItems returns the number of stored items.
	NumItems() int

	// Pager exposes the underlying pager for I/O statistics.
	Pager() *store.Pager
}

// PivotCoster is implemented by engines whose Prepare pays real metric
// distance calculations (query-to-pivot distances). The counter is
// cumulative over the engine's lifetime; the processor snapshots it around
// each call and reports the delta as Stats.PivotDistCalcs, keeping the
// filter's cost visible next to the DistCalcs it saves.
type PivotCoster interface {
	PivotDistCalcs() int64
}

// Config describes an engine's tuning for EXPLAIN output and the advisor.
// Zero fields are omitted from JSON, so each engine only reports the knobs
// it actually has.
type Config struct {
	PageCapacity int `json:"page_capacity,omitempty"`
	// Pivots is the number of pivots (pivot table, PM-tree rings).
	Pivots int `json:"pivots,omitempty"`
	// Bits is the per-dimension approximation resolution (VA-file).
	Bits int `json:"bits,omitempty"`
	// Fanout is the directory fanout (X-tree, PM-tree).
	Fanout int `json:"fanout,omitempty"`
}

// Described is implemented by engines that can report their configuration.
type Described interface {
	Describe() Config
}

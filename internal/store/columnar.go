// Columnar page construction: turning array-of-structs pages (one heap
// allocation per item vector) into SoA blocks, at build time for the
// in-memory engines and on read for stored version-1 datasets.
package store

import (
	"fmt"

	"metricdb/internal/obs"
	"metricdb/internal/vec"
)

// Columnize rebuilds each page's coordinates as a contiguous float64
// block and re-points every Item.Vec at its block row. Values are copied
// bit-for-bit, so results of any computation over the vectors are
// unchanged; only memory placement is new. A no-op when columnar is false.
func Columnize(pages []*Page, columnar bool) error {
	if !columnar {
		return nil
	}
	for _, p := range pages {
		if err := ColumnizePage(p); err != nil {
			return err
		}
	}
	return nil
}

// ColumnizePage is Columnize for a single page.
func ColumnizePage(p *Page) error {
	if len(p.Items) == 0 {
		return nil
	}
	dim := p.Items[0].Vec.Dim()
	if b := p.Cols; b != nil && b.Dim == dim && b.N == len(p.Items) {
		return nil
	}
	b := vec.NewBlock(dim, len(p.Items))
	for i := range p.Items {
		if p.Items[i].Vec.Dim() != dim {
			return fmt.Errorf("store: page %d item %d has dimension %d, item 0 has %d",
				p.ID, i, p.Items[i].Vec.Dim(), dim)
		}
		b.SetItem(i, p.Items[i].Vec)
		p.Items[i].Vec = b.Item(i)
	}
	p.Cols = b
	return nil
}

// ColumnSource is a PageSource wrapper that columnizes pages as they are
// read — the adapter that lets an soa open serve a stored version-1
// dataset, whose records carry no block. It sits between the disk and the
// buffer pool, so each page pays the conversion once per fetch and cached
// pages stay columnar.
type ColumnSource struct {
	src PageSource
}

// WrapColumns wraps src so every page read through it is columnized. If
// columnar is false, src is returned unwrapped.
func WrapColumns(src PageSource, columnar bool) PageSource {
	if !columnar {
		return src
	}
	return &ColumnSource{src: src}
}

// Read fetches the page from the wrapped source and columnizes it.
func (c *ColumnSource) Read(pid PageID) (*Page, error) {
	p, err := c.src.Read(pid)
	if err != nil {
		return nil, err
	}
	if err := ColumnizePage(p); err != nil {
		return nil, err
	}
	return p, nil
}

// NumPages reports the wrapped source's page count.
func (c *ColumnSource) NumPages() int { return c.src.NumPages() }

// Stats reports the wrapped source's I/O statistics.
func (c *ColumnSource) Stats() IOStats { return c.src.Stats() }

// ResetStats clears the wrapped source's I/O statistics, returning the
// stats up to that point.
func (c *ColumnSource) ResetStats() IOStats { return c.src.ResetStats() }

// SetTracer forwards the tracer to the wrapped source when it accepts one
// (the same duck-typed seam the pager uses).
func (c *ColumnSource) SetTracer(tr *obs.Tracer) {
	if st, ok := c.src.(interface{ SetTracer(*obs.Tracer) }); ok {
		st.SetTracer(tr)
	}
}

// Unwrap exposes the wrapped source so facades that type-assert for a
// concrete disk (e.g. *FileDisk for storage statistics) keep working when
// a layout wrapper is interposed.
func (c *ColumnSource) Unwrap() PageSource { return c.src }

// UnwrapSource strips PageSource wrappers (anything exposing
// Unwrap() PageSource) down to the innermost source.
func UnwrapSource(src PageSource) PageSource {
	for {
		u, ok := src.(interface{ Unwrap() PageSource })
		if !ok {
			return src
		}
		src = u.Unwrap()
	}
}

var _ PageSource = (*ColumnSource)(nil)

package ecoroute

import (
	"slices"

	"roadgrade/internal/par"
)

// This file is the storage behind every per-edge row of a snapshot: the
// stamps, grade closures, fuel and pollutant rows, and the static distance
// and time rows (DESIGN.md §9). A row is a table of pointers to fixed-size
// pages, and consecutive snapshots share pages: a tick clones the page
// tables and copies only the pages holding an edge it re-stamps. A page is
// written only while it is private to the row under construction, so two
// rows holding the same page hold equal entries there, and a diff of two
// stamp rows skips every shared page unread.

const (
	pageShift = 9
	// pageLen is the entry count of a page: 512 entries, 4 KB of float64.
	pageLen  = 1 << pageShift
	pageMask = pageLen - 1
)

// pagedRow is one per-edge row. Every page holds pageLen entries except the
// last, which holds what is left of the row. Readers go through at; only
// the snapshot under construction calls set.
type pagedRow[T any] struct {
	pages [][]T
	// src is the page table of the row this one was cloned from: set copies
	// a page still shared with it before the page's first write. A row made
	// by newPagedRow has none, and all its pages are private.
	src [][]T
}

// newPagedRow returns a row of n zero entries on private pages.
func newPagedRow[T any](n int) pagedRow[T] {
	r := pagedRow[T]{pages: make([][]T, (n+pageMask)>>pageShift)}
	for p := range r.pages {
		r.pages[p] = make([]T, min(pageLen, n-p<<pageShift))
	}
	return r
}

// at returns entry i.
func (r pagedRow[T]) at(i int32) T { return r.pages[i>>pageShift][i&pageMask] }

// clone returns a row that shares every page with r and copies a page only
// when set first writes into it.
func (r pagedRow[T]) clone() pagedRow[T] {
	return pagedRow[T]{pages: slices.Clone(r.pages), src: r.pages}
}

// set writes entry i, copying its page first if the page is still shared
// with the row r was cloned from.
func (r *pagedRow[T]) set(i int32, v T) {
	p := i >> pageShift
	pg := r.pages[p]
	if r.src != nil && &pg[0] == &r.src[p][0] {
		pg = slices.Clone(pg)
		r.pages[p] = pg
	}
	pg[i&pageMask] = v
}

// diffRows calls fn, in ascending order, with every index at which two rows
// of equal length hold different entries. A page the rows share is skipped
// unread; only pages that differ are compared entry by entry.
func diffRows[T comparable](a, b pagedRow[T], fn func(i int32)) {
	for p, pa := range a.pages {
		pb := b.pages[p]
		if &pa[0] == &pb[0] {
			continue
		}
		base := int32(p) << pageShift
		for k, v := range pa {
			if v != pb[k] {
				fn(base + int32(k))
			}
		}
	}
}

// byPage calls fn with every entry of edges, an ascending list of edge
// indices, split into the runs that fall in one page, each run once. A
// list of a page or more spreads its runs over GOMAXPROCS goroutines
// (par.Do); a shorter one is one run on the caller's goroutine. Every page
// is then written by one goroutine, so a row's copy-on-write set needs no
// lock as long as fn writes only the edges it is given.
func byPage(edges []int32, fn func(run []int32)) {
	if len(edges) < pageLen {
		fn(edges)
		return
	}
	var starts []int
	for k, i := range edges {
		if k == 0 || i>>pageShift != edges[k-1]>>pageShift {
			starts = append(starts, k)
		}
	}
	starts = append(starts, len(edges))
	par.Do(len(starts)-1, func(_, j int) { fn(edges[starts[j]:starts[j+1]]) })
}

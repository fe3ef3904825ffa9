package ecoroute

import (
	"context"
	"fmt"

	"roadgrade/internal/fuel"
)

// Matrix answers a batched many-to-many query: the cost from every source to
// every target under the objective, as a [len(sources)][len(targets)] grid
// (+Inf where no path exists). See MatrixCtx for the search strategy.
func (e *Engine) Matrix(obj Objective, speedKmh float64, sources, targets []int) ([][]float64, error) {
	return e.MatrixCtx(context.Background(), obj, speedKmh, sources, targets)
}

// MatrixCtx is Matrix with cancellation: work stops (and ctx.Err() is
// returned) as soon as the context is done, so an abandoned HTTP request
// doesn't keep burning CPU on a grid nobody will read. The grid runs bucket
// sweeps over the published snapshot's customized hierarchy (cchMatrix),
// checking the context before each endpoint's sweep.
func (e *Engine) MatrixCtx(ctx context.Context, obj Objective, speedKmh float64, sources, targets []int) ([][]float64, error) {
	bucket, err := e.bucketFor(speedKmh)
	if err != nil {
		return nil, err
	}
	if len(sources) == 0 || len(targets) == 0 {
		return nil, fmt.Errorf("ecoroute: empty matrix query (%d sources, %d targets)", len(sources), len(targets))
	}
	denseT, err := e.denseNodes(targets)
	if err != nil {
		return nil, err
	}
	denseS, err := e.denseNodes(sources)
	if err != nil {
		return nil, err
	}
	scale := 1.0
	if obj == CO2 {
		// The search runs on the fuel row; scale the reported costs.
		scale = fuel.CO2GramsPerGallon
	}
	tb := e.snapshot(e.needOf(obj, bucket, true))
	defer tb.release()
	return e.cchMatrix(tb.w[e.slotOf(metricFor(obj), bucket)], denseS, denseT, scale, ctx.Err)
}

// denseNodes maps node IDs to dense indices.
func (e *Engine) denseNodes(ids []int) ([]int32, error) {
	out := make([]int32, len(ids))
	for i, id := range ids {
		d, ok := e.idx[id]
		if !ok {
			return nil, fmt.Errorf("%w %d", ErrUnknownNode, id)
		}
		out[i] = int32(d)
	}
	return out, nil
}

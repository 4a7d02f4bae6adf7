package kernels

// HeatCell returns the CellFunc of an explicit 5-point heat-diffusion
// stencil with diffusion coefficient alpha (stable for alpha ≤ 0.25):
//
//	u' = u + α·(n + s + e + w − 4u)
//
// It is used by the examples and ablations as a second workload with a
// different compute/traffic ratio than Kernel 23.
func HeatCell(alpha float64) CellFunc {
	return func(c, n, s, e, w float64, _, _ int) float64 {
		return c + float64(alpha*(n+s+e+w-float64(4*c)))
	}
}

// HeatCosts are the sweep costs of the heat stencil: 7 flops per cell and
// two 8-byte streams (read and write of the solution array).
var HeatCosts = Costs{FlopsPerCell: 7, BytesPerCell: 16}

package basic

import (
	"math"

	"rajaperf/internal/kernels"
)

// matTile is the tile edge, matching the suite's TL_SZ shared-memory tile.
const matTile = 16

// MatMatShared implements Basic_MAT_MAT_SHARED: a tiled dense matrix
// multiply whose tiles model GPU shared memory. It is the paper's
// achieved-FLOPS probe (Table II) and the canonical core-bound kernel.
type MatMatShared struct {
	kernels.KernelBase
	a, b, c []float64
	dim     int // matrix edge N
}

func init() { kernels.Register(NewMatMatShared) }

// NewMatMatShared constructs the MAT_MAT_SHARED kernel.
func NewMatMatShared() kernels.Kernel {
	return &MatMatShared{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MAT_MAT_SHARED",
		Group:       kernels.Basic,
		Complexity:  kernels.CxN32,
		DefaultSize: defaultSize,
		DefaultReps: 2,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel. The problem size is total matrix
// storage; the matrix edge is sqrt(size/3) rounded to whole tiles.
func (k *MatMatShared) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	k.dim = int(math.Sqrt(float64(size) / 3))
	if k.dim < matTile {
		k.dim = matTile
	}
	k.dim -= k.dim % matTile
	d := k.dim
	k.a = rp.Alloc(d * d)
	k.b = rp.Alloc(d * d)
	k.c = rp.Alloc(d * d)
	kernels.InitData(k.a, 1.0)
	kernels.InitData(k.b, 2.0)
	nd := float64(d)
	k.SetMetrics(kernels.AnalyticMetrics{
		// Footprint accounting: shared-memory tiling means A and B
		// stream through once per rep.
		BytesRead:    2 * 8 * nd * nd,
		BytesWritten: 8 * nd * nd,
		Flops:        2 * nd * nd * nd,
	})
	k.SetMix(kernels.Mix{
		// Per inner MAC: one FMA on tile-resident data. As the
		// achieved-FLOPS probe it reaches the full calibrated
		// efficiency on GPUs.
		Flops: 2, Loads: 2, Stores: 1.0 / (matTile * matTile),
		Pattern: kernels.AccessUnit, Reuse: 0.96,
		ILP:             2,
		WorkingSetBytes: 3 * 8 * nd * nd,
		FootprintKB:     2.5,
		GPUFlopEff:      1,
	})
}

// tileMul computes one (by, bx) output tile using tile-local staging
// buffers, the shared-memory structure of the GPU original.
func tileMul(a, b, c []float64, d, by, bx int) {
	var as, bs, cs [matTile][matTile]float64
	for ty := 0; ty < matTile; ty++ {
		for tx := 0; tx < matTile; tx++ {
			cs[ty][tx] = 0
		}
	}
	for kt := 0; kt < d; kt += matTile {
		for ty := 0; ty < matTile; ty++ {
			row := (by*matTile + ty) * d
			for tx := 0; tx < matTile; tx++ {
				as[ty][tx] = a[row+kt+tx]
				bs[ty][tx] = b[(kt+ty)*d+bx*matTile+tx]
			}
		}
		for ty := 0; ty < matTile; ty++ {
			for kk := 0; kk < matTile; kk++ {
				av := as[ty][kk]
				for tx := 0; tx < matTile; tx++ {
					cs[ty][tx] += av * bs[kk][tx]
				}
			}
		}
	}
	for ty := 0; ty < matTile; ty++ {
		row := (by*matTile + ty) * d
		for tx := 0; tx < matTile; tx++ {
			c[row+bx*matTile+tx] = cs[ty][tx]
		}
	}
}

// Run implements kernels.Kernel. The parallel index space is the output
// tile grid.
func (k *MatMatShared) Run(v kernels.VariantID, rp kernels.RunParams) error {
	a, b, c, d := k.a, k.b, k.c, k.dim
	tiles := d / matTile
	nTiles := tiles * tiles
	body := func(t int) { tileMul(a, b, c, d, t/tiles, t%tiles) }
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, nTiles,
			func(lo, hi int) {
				for t := lo; t < hi; t++ {
					tileMul(a, b, c, d, t/tiles, t%tiles)
				}
			},
			body)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(c))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *MatMatShared) TearDown() { k.a, k.b, k.c = nil, nil, nil }

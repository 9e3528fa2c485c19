package comm

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// HaloPackingFused implements Comm_HALO_PACKING_FUSED: the same pack and
// unpack work as HALO_PACKING with all per-(variable, face) loops enqueued
// into a raja.WorkGroup and dispatched in two fused launches.
type HaloPackingFused struct {
	kernels.KernelBase
	dom *haloDomain
}

func init() { kernels.Register(NewHaloPackingFused) }

// NewHaloPackingFused constructs the HALO_PACKING_FUSED kernel.
func NewHaloPackingFused() kernels.Kernel {
	return &HaloPackingFused{KernelBase: kernels.NewKernelBase(
		haloInfo("HALO_PACKING_FUSED",
			[]kernels.VariantID{
				kernels.BaseSeq, kernels.RAJASeq,
				kernels.BaseOpenMP, kernels.RAJAOpenMP,
				kernels.BaseGPU, kernels.RAJAGPU,
			},
			kernels.FeatWorkgroup))}
}

// SetUp implements kernels.Kernel.
func (k *HaloPackingFused) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	k.dom = newHaloDomain(rp, size, 0)
	haloMetrics(&k.KernelBase, size, 1, 0, 2)
}

// Run implements kernels.Kernel. Base variants emulate fusion by running
// the concatenated work as one dispatch over all faces; RAJA variants use
// the WorkGroup abstraction.
func (k *HaloPackingFused) Run(v kernels.VariantID, rp kernels.RunParams) error {
	if !k.Info().HasVariant(v) {
		return k.Unsupported(v)
	}
	h := k.dom
	pol := rp.Policy(v)
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		var packGroup, unpackGroup raja.WorkGroup
		for vi := 0; vi < haloVars; vi++ {
			for f := 0; f < numFaces; f++ {
				vi, f := vi, f
				buf, list, data := h.buffers[vi][f], h.pack[f], h.vars[vi]
				packGroup.Enqueue(len(list), func(_ raja.Ctx, i int) {
					buf[i] = data[list[i]]
				})
				ubuf, ulist := h.buffers[vi][f], h.unpack[opposite(f)]
				unpackGroup.Enqueue(len(ulist), func(_ raja.Ctx, i int) {
					data[ulist[i]] = ubuf[i]
				})
			}
		}
		packGroup.Run(pol)
		unpackGroup.Run(pol)
	}
	k.SetChecksum(h.checksum())
	return nil
}

// TearDown implements kernels.Kernel.
func (k *HaloPackingFused) TearDown() { k.dom = nil }

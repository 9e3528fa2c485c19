package comm

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
	"rajaperf/internal/simmpi"
)

// HaloExchangeFused implements Comm_HALO_EXCHANGE_FUSED: the full halo
// cycle with pack and unpack loops fused through raja.WorkGroup, so each
// rank issues two dispatches per cycle instead of 2 * vars * faces.
type HaloExchangeFused struct {
	kernels.KernelBase
	doms []*haloDomain
}

func init() { kernels.Register(NewHaloExchangeFused) }

// NewHaloExchangeFused constructs the HALO_EXCHANGE_FUSED kernel.
func NewHaloExchangeFused() kernels.Kernel {
	return &HaloExchangeFused{KernelBase: kernels.NewKernelBase(
		haloInfo("HALO_EXCHANGE_FUSED",
			[]kernels.VariantID{
				kernels.BaseSeq, kernels.RAJASeq,
				kernels.BaseOpenMP, kernels.RAJAOpenMP,
				kernels.BaseGPU, kernels.RAJAGPU,
			},
			kernels.FeatWorkgroup))}
}

// SetUp implements kernels.Kernel.
func (k *HaloExchangeFused) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	ranks := rp.EffectiveRanks()
	k.doms = make([]*haloDomain, ranks)
	for r := range k.doms {
		k.doms[r] = newHaloDomain(rp, size, r)
	}
	haloMetrics(&k.KernelBase, size, ranks, 0.6, 2)
}

// Run implements kernels.Kernel.
func (k *HaloExchangeFused) Run(v kernels.VariantID, rp kernels.RunParams) error {
	if !k.Info().HasVariant(v) {
		return k.Unsupported(v)
	}
	doms := k.doms
	pol := rp.Policy(v)
	for rep := 0; rep < rp.EffectiveReps(k.Info()); rep++ {
		simmpi.Run(len(doms), func(r *simmpi.Rank) {
			h := doms[r.ID()]
			left := (r.ID() + r.Size() - 1) % r.Size()
			right := (r.ID() + 1) % r.Size()

			var packGroup raja.WorkGroup
			for vi := 0; vi < haloVars; vi++ {
				for f := 0; f < numFaces; f++ {
					buf, list, data := h.buffers[vi][f], h.pack[f], h.vars[vi]
					packGroup.Enqueue(len(list), func(_ raja.Ctx, i int) {
						buf[i] = data[list[i]]
					})
				}
			}
			packGroup.Run(pol)

			for vi := 0; vi < haloVars; vi++ {
				tagL, tagR := 100+vi, 200+vi
				rl := r.Irecv(left, tagR)
				rr := r.Irecv(right, tagL)
				r.Isend(left, tagL, h.buffers[vi][0])
				r.Isend(right, tagR, h.buffers[vi][1])
				copy(h.buffers[vi][0], rl.Wait())
				copy(h.buffers[vi][1], rr.Wait())
			}

			var unpackGroup raja.WorkGroup
			for vi := 0; vi < haloVars; vi++ {
				for f := 0; f < numFaces; f++ {
					src := f
					if f >= 2 {
						src = opposite(f)
					}
					buf, list, data := h.buffers[vi][src], h.unpack[f], h.vars[vi]
					unpackGroup.Enqueue(len(list), func(_ raja.Ctx, i int) {
						data[list[i]] = buf[i]
					})
				}
			}
			unpackGroup.Run(pol)
		})
	}
	s := 0.0
	for _, h := range doms {
		s += h.checksum()
	}
	k.SetChecksum(s)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *HaloExchangeFused) TearDown() { k.doms = nil }

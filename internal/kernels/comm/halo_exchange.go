package comm

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/simmpi"
)

// HaloExchange implements Comm_HALO_EXCHANGE: the full halo cycle — pack
// face buffers, exchange the x-faces with ring neighbors over the message
// substrate, wrap the remaining faces locally, and unpack. The paper finds
// these kernels dominated by MPI time on every platform (Sec V-A).
type HaloExchange struct {
	kernels.KernelBase
	doms []*haloDomain
}

func init() { kernels.Register(NewHaloExchange) }

// NewHaloExchange constructs the HALO_EXCHANGE kernel.
func NewHaloExchange() kernels.Kernel {
	return &HaloExchange{KernelBase: kernels.NewKernelBase(
		haloInfo("HALO_EXCHANGE", kernels.NoLambdaVariants))}
}

// SetUp implements kernels.Kernel.
func (k *HaloExchange) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	ranks := rp.EffectiveRanks()
	k.doms = make([]*haloDomain, ranks)
	for r := range k.doms {
		k.doms[r] = newHaloDomain(rp, size, r)
	}
	haloMetrics(&k.KernelBase, size, ranks, 0.6, 2*numFaces*haloVars)
}

// exchangeOnce runs one pack-communicate-unpack cycle for one rank.
func exchangeOnce(h *haloDomain, r *simmpi.Rank, v kernels.VariantID, rp kernels.RunParams) error {
	left := (r.ID() + r.Size() - 1) % r.Size()
	right := (r.ID() + 1) % r.Size()
	// Pack all faces.
	for vi := 0; vi < haloVars; vi++ {
		for f := 0; f < numFaces; f++ {
			buf, list, data := h.buffers[vi][f], h.pack[f], h.vars[vi]
			err := kernels.RunVariant(v, rp, len(list),
				func(lo, hi int) {
					for i := lo; i < hi; i++ {
						buf[i] = data[list[i]]
					}
				},
				nil)
			if err != nil {
				return err
			}
		}
	}
	// Exchange x-faces with ring neighbors; receive into the buffer of
	// the face being filled.
	for vi := 0; vi < haloVars; vi++ {
		tagL, tagR := 100+vi, 200+vi
		rl := r.Irecv(left, tagR)
		rr := r.Irecv(right, tagL)
		r.Isend(left, tagL, h.buffers[vi][0])  // -x face to left
		r.Isend(right, tagR, h.buffers[vi][1]) // +x face to right
		copy(h.buffers[vi][0], rl.Wait())      // left neighbor's +x data
		copy(h.buffers[vi][1], rr.Wait())
	}
	// Unpack: x ghost layers from received data, y/z wrap locally.
	for vi := 0; vi < haloVars; vi++ {
		for f := 0; f < numFaces; f++ {
			src := f
			if f >= 2 {
				src = opposite(f) // periodic local wrap
			}
			buf, list, data := h.buffers[vi][src], h.unpack[f], h.vars[vi]
			err := kernels.RunVariant(v, rp, len(list),
				func(lo, hi int) {
					for i := lo; i < hi; i++ {
						data[list[i]] = buf[i]
					}
				},
				nil)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Run implements kernels.Kernel.
func (k *HaloExchange) Run(v kernels.VariantID, rp kernels.RunParams) error {
	if !k.Info().HasVariant(v) {
		return k.Unsupported(v)
	}
	doms := k.doms
	errs := make([]error, len(doms))
	for rep := 0; rep < rp.EffectiveReps(k.Info()); rep++ {
		simmpi.Run(len(doms), func(r *simmpi.Rank) {
			errs[r.ID()] = exchangeOnce(doms[r.ID()], r, v, rp)
		})
		for _, err := range errs {
			if err != nil {
				return k.Unsupported(v)
			}
		}
	}
	s := 0.0
	for _, h := range doms {
		s += h.checksum()
	}
	k.SetChecksum(s)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *HaloExchange) TearDown() { k.doms = nil }

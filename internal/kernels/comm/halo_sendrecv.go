package comm

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/simmpi"
)

// HaloSendrecv implements Comm_HALO_SENDRECV: the message-passing portion
// of a halo exchange alone — pre-packed buffers travel between ring
// neighbors with no packing compute, isolating MPI cost. It has no
// parallel kernel variants (Table I).
type HaloSendrecv struct {
	kernels.KernelBase
	doms []*haloDomain
}

func init() { kernels.Register(NewHaloSendrecv) }

// NewHaloSendrecv constructs the HALO_SENDRECV kernel.
func NewHaloSendrecv() kernels.Kernel {
	return &HaloSendrecv{KernelBase: kernels.NewKernelBase(
		haloInfo("HALO_SENDRECV", []kernels.VariantID{kernels.BaseSeq}))}
}

// SetUp implements kernels.Kernel.
func (k *HaloSendrecv) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	ranks := rp.EffectiveRanks()
	k.doms = make([]*haloDomain, ranks)
	for r := range k.doms {
		k.doms[r] = newHaloDomain(rp, size, r)
		// Pre-pack the x-face buffers once; the kernel then measures
		// pure message traffic.
		h := k.doms[r]
		for vi := 0; vi < haloVars && len(h.vars[0]) > 0; vi++ {
			for _, f := range []int{0, 1} {
				for i, idx := range h.pack[f] {
					h.buffers[vi][f][i] = h.vars[vi][idx]
				}
			}
		}
	}
	haloMetrics(&k.KernelBase, size, ranks, 0.95, 0)
}

// Run implements kernels.Kernel.
func (k *HaloSendrecv) Run(v kernels.VariantID, rp kernels.RunParams) error {
	if v != kernels.BaseSeq {
		return k.Unsupported(v)
	}
	doms := k.doms
	for rep := 0; rep < rp.EffectiveReps(k.Info()); rep++ {
		simmpi.Run(len(doms), func(r *simmpi.Rank) {
			h := doms[r.ID()]
			left := (r.ID() + r.Size() - 1) % r.Size()
			right := (r.ID() + 1) % r.Size()
			for vi := 0; vi < haloVars; vi++ {
				tagL, tagR := 300+vi, 400+vi
				rl := r.Irecv(left, tagR)
				rr := r.Irecv(right, tagL)
				r.Isend(left, tagL, h.buffers[vi][0])
				r.Isend(right, tagR, h.buffers[vi][1])
				copy(h.buffers[vi][0], rl.Wait())
				copy(h.buffers[vi][1], rr.Wait())
			}
		})
	}
	s := 0.0
	for _, h := range doms {
		for vi := 0; vi < haloVars; vi++ {
			s += kernels.ChecksumSlice(h.buffers[vi][0]) +
				kernels.ChecksumSlice(h.buffers[vi][1])
		}
	}
	k.SetChecksum(s)
	return nil
}

// TearDown implements kernels.Kernel.
func (k *HaloSendrecv) TearDown() { k.doms = nil }

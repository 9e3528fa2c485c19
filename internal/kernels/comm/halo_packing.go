package comm

import "rajaperf/internal/kernels"

// HaloPacking implements Comm_HALO_PACKING: the pack/unpack loops of a
// halo exchange without any message passing — each face's buffer is packed
// from the interior layer and unpacked into the opposite ghost layer, one
// short loop per (variable, face), i.e. many small kernel launches.
type HaloPacking struct {
	kernels.KernelBase
	dom *haloDomain
}

func init() { kernels.Register(NewHaloPacking) }

// NewHaloPacking constructs the HALO_PACKING kernel.
func NewHaloPacking() kernels.Kernel {
	return &HaloPacking{KernelBase: kernels.NewKernelBase(
		haloInfo("HALO_PACKING", kernels.NoLambdaVariants))}
}

// SetUp implements kernels.Kernel.
func (k *HaloPacking) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	k.dom = newHaloDomain(rp, size, 0)
	haloMetrics(&k.KernelBase, size, 1, 0, 2*numFaces*haloVars)
}

// Run implements kernels.Kernel.
func (k *HaloPacking) Run(v kernels.VariantID, rp kernels.RunParams) error {
	if !k.Info().HasVariant(v) {
		return k.Unsupported(v)
	}
	h := k.dom
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		// Pack: one loop per (variable, face).
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
					return k.Unsupported(v)
				}
			}
		}
		// Unpack each buffer into the opposite face's ghost layer
		// (self-exchange: no messages in this kernel).
		for vi := 0; vi < haloVars; vi++ {
			for f := 0; f < numFaces; f++ {
				buf, list, data := h.buffers[vi][f], h.unpack[opposite(f)], h.vars[vi]
				err := kernels.RunVariant(v, rp, len(list),
					func(lo, hi int) {
						for i := lo; i < hi; i++ {
							data[list[i]] = buf[i]
						}
					},
					nil)
				if err != nil {
					return k.Unsupported(v)
				}
			}
		}
	}
	k.SetChecksum(h.checksum())
	return nil
}

// TearDown implements kernels.Kernel.
func (k *HaloPacking) TearDown() { k.dom = nil }

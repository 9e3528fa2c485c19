package raja

// WorkGroup collects many small loop bodies and dispatches them as a single
// fused launch, mirroring RAJA::WorkGroup. The suite's HALO_*_FUSED kernels
// use it to amortize per-launch overhead across the many short pack/unpack
// loops of a halo exchange.
type WorkGroup struct {
	items []workItem
}

type workItem struct {
	n    int
	body Body
}

// Enqueue adds a loop of n iterations over body to the group.
func (g *WorkGroup) Enqueue(n int, body Body) {
	g.items = append(g.items, workItem{n: n, body: body})
}

// Run executes every enqueued loop under a single fused dispatch and clears
// the group. Under parallel policies whole items are distributed across
// workers dynamically; iterations of one item never split across workers,
// matching the warp-per-loop dispatch of RAJA's GPU workgroup.
func (g *WorkGroup) Run(p Policy) {
	items := g.items
	g.items = g.items[:0]
	if len(items) == 0 {
		return
	}
	workers := p.workers()
	if p.Kind == Seq || workers <= 1 || len(items) == 1 {
		c := Ctx{}
		for _, it := range items {
			for i := 0; i < it.n; i++ {
				it.body(c, i)
			}
		}
		return
	}
	// Distribute whole items dynamically across the policy's pool: one
	// forall index per item, block size 1, so iterations of one item
	// never split across workers.
	pp := chunkLoopPolicy(p)
	pp.Workers = workers
	ForallRange(pp, RangeN(len(items)), func(c Ctx, k int) {
		it := items[k]
		for i := 0; i < it.n; i++ {
			it.body(c, i)
		}
	})
}

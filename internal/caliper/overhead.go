package caliper

// Overhead self-measurement: real Caliper ships papers' favorite
// question — "what did the measurement cost?" — as self-profiling of its
// own annotation path. The recorder answers it in the run itself: Begin
// and End time the work they do besides the region (counter sampling,
// tree bookkeeping, trace emission), so the cost is that of the run's
// real regions under its exact service set, and the suite scales it into
// an overhead fraction recorded in metadata.

// Overhead is the annotation path's measured cost over a run.
type Overhead struct {
	// PerRegionSec is the mean time Begin and End spent on the
	// recorder's own work per closed region.
	PerRegionSec float64
	// Samples is the number of regions closed, the count the mean is
	// taken over.
	Samples int
}

// Overhead returns the annotation cost measured so far: the time Begin
// and End spent outside the regions they delimit, per closed region.
// Like Begin and End, call it from the goroutine driving the run.
func (c *Recorder) Overhead() Overhead {
	if c.closed == 0 {
		return Overhead{}
	}
	return Overhead{
		PerRegionSec: c.spent.Seconds() / float64(c.closed),
		Samples:      c.closed,
	}
}

// Fraction estimates the share of wallSec spent on instrumentation for
// a run that closed regionCount regions, clamped to [0, 1]. Zero wall
// time yields zero: no basis for a fraction.
func (o Overhead) Fraction(regionCount float64, wallSec float64) float64 {
	if wallSec <= 0 || regionCount <= 0 {
		return 0
	}
	f := o.PerRegionSec * regionCount / wallSec
	if f > 1 {
		return 1
	}
	return f
}

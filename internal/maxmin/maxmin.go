// Package maxmin implements the max-min fair bandwidth allocation used in
// two places in Remos: the network emulator uses it as the ground-truth
// sharing model for concurrent fluid flows, and the Modeler uses it to
// answer flow queries on topologies returned by the collectors, exactly as
// the paper describes ("the Modeler also performs max-min flow calculations
// on the Collector's topologies to determine solutions to flow queries").
package maxmin

import (
	"errors"
	"math"
)

// Flow describes one demand in an allocation problem.
type Flow struct {
	// Links are indices into the capacity vector of the links this flow
	// crosses. A link may appear at most once per flow.
	Links []int

	// Demand is the flow's maximum useful rate. Zero or negative means
	// the flow is elastic (takes whatever fair share is available).
	Demand float64
}

// ErrBadLink reports a flow referencing a link index outside the capacity
// vector.
var ErrBadLink = errors.New("maxmin: flow references unknown link")

// Allocate computes the max-min fair rates for flows over links with the
// given capacities, using progressive filling: all unfrozen flows are
// raised at the same rate; when a link saturates, the flows crossing it
// freeze at their current rate; when a flow reaches its demand, it freezes
// there. Capacities and the returned rates are in the same (arbitrary)
// units, conventionally bits per second.
//
// A flow crossing no links is limited only by its demand; if it is also
// elastic its rate is +Inf. A negative or NaN capacity is read as 0.
func Allocate(capacities []float64, flows []Flow) ([]float64, error) {
	var a Allocator
	return a.AllocateInto(nil, capacities, flows)
}

// Allocator runs Allocate with reusable scratch vectors (residual
// capacities, saturation thresholds and active counts per link, frozen
// flags per flow), so batched allocations on a serving path allocate no
// scratch per call. The zero value is ready; an Allocator is not safe for
// concurrent use — pool instances instead.
type Allocator struct {
	residual []float64
	full     []float64 // a link is saturated once its residual is at most this
	active   []int
	frozen   []bool
}

// AllocateInto is Allocate writing rates into dst (grown as needed) and
// drawing its scratch from the Allocator. Once the Allocator has served
// a problem of a given size, same-or-smaller problems allocate nothing
// beyond a possibly-growing dst.
func (a *Allocator) AllocateInto(dst []float64, capacities []float64, flows []Flow) ([]float64, error) {
	rates := growFloats(dst, len(flows))
	for i := range rates {
		rates[i] = 0
	}
	if len(flows) == 0 {
		return rates, nil
	}

	// residual capacity, saturation threshold and count of unfrozen flows
	// per link
	const eps = 1e-9
	a.residual = growFloats(a.residual, len(capacities))
	a.full = growFloats(a.full, len(capacities))
	residual, full := a.residual, a.full
	for i, c := range capacities {
		c = usable(c)
		residual[i] = c
		// c is neither NaN nor negative here, so the builtin max is
		// math.Max without the call.
		full[i] = eps * max(1, c)
		if math.IsInf(c, 1) {
			// No finite increment drains an infinite link: it never
			// saturates (its residual stays +Inf, which is <= +Inf).
			full[i] = math.Inf(-1)
		}
	}
	a.active = growInts(a.active, len(capacities))
	active := a.active
	for i := range active {
		active[i] = 0
	}
	a.frozen = growBools(a.frozen, len(flows))
	frozen := a.frozen
	for i := range frozen {
		frozen[i] = false
	}

	for _, f := range flows {
		for _, li := range f.Links {
			if li < 0 || li >= len(capacities) {
				return nil, ErrBadLink
			}
			active[li]++
		}
	}

	// Flows with no links are bounded only by demand.
	unfrozen := 0
	for fi, f := range flows {
		if len(f.Links) == 0 {
			if f.Demand > 0 {
				rates[fi] = f.Demand
			} else {
				rates[fi] = math.Inf(1)
			}
			frozen[fi] = true
			continue
		}
		unfrozen++
	}

	for unfrozen > 0 {
		// The next increment is the smallest of: fair residual share on
		// any link carrying unfrozen flows, and any unfrozen flow's
		// remaining demand headroom.
		inc := math.Inf(1)
		for li := range residual {
			if active[li] == 0 {
				continue
			}
			share := residual[li] / float64(active[li])
			if share < inc {
				inc = share
			}
		}
		for fi, f := range flows {
			if frozen[fi] || f.Demand <= 0 {
				continue
			}
			if head := f.Demand - rates[fi]; head < inc {
				inc = head
			}
		}
		if math.IsInf(inc, 1) {
			// No constraining link or demand: remaining flows are
			// unbounded. This cannot happen for flows with links over
			// finite capacities, but guard against inf capacities.
			for fi := range flows {
				if !frozen[fi] {
					rates[fi] = math.Inf(1)
					frozen[fi] = true
				}
			}
			break
		}
		if inc < 0 {
			inc = 0
		}

		// Apply the increment.
		for fi, f := range flows {
			if frozen[fi] {
				continue
			}
			rates[fi] += inc
			for _, li := range f.Links {
				residual[li] -= inc
			}
		}

		// Freeze flows at demand and flows crossing saturated links.
		for fi, f := range flows {
			if frozen[fi] {
				continue
			}
			freeze := f.Demand > 0 && rates[fi] >= f.Demand-eps*math.Max(1, f.Demand)
			if !freeze {
				for _, li := range f.Links {
					if residual[li] <= full[li] {
						freeze = true
						break
					}
				}
			}
			if freeze {
				frozen[fi] = true
				unfrozen--
				for _, li := range f.Links {
					active[li]--
				}
			}
		}
	}
	return rates, nil
}

// usable is a link capacity as allocation reads it: a negative or NaN
// capacity carries nothing.
func usable(c float64) float64 {
	if c < 0 || math.IsNaN(c) {
		return 0
	}
	return c
}

// growFloats returns s resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers reinitialize.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Bottleneck returns the naive bottleneck estimate for a single flow:
// the minimum residual capacity along its links, capped by demand. It is
// the baseline the Modeler's max-min calculation is compared against
// (ablation: sharing-aware vs. sharing-oblivious flow answers).
func Bottleneck(capacities []float64, f Flow) (float64, error) {
	min := math.Inf(1)
	for _, li := range f.Links {
		if li < 0 || li >= len(capacities) {
			return 0, ErrBadLink
		}
		if capacities[li] < min {
			min = capacities[li]
		}
	}
	if f.Demand > 0 && f.Demand < min {
		min = f.Demand
	}
	return min, nil
}

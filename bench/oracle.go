package main

import (
	"fmt"
	"math"
	"time"

	"remos/internal/modeler"
	"remos/internal/topology"
)

// The answer oracle. Expected answers come from the emulator, which owns
// the true topology: netsim.TopologyGraph is the graph a perfect walk
// would assemble, and Graph.FlowAlloc on it is the whole-graph max-min
// allocation — neither the snapshot plane's path index nor any collector
// takes part. Tables are built before the rig is timed; a timed answer is
// compared by table lookup once its clock has stopped.

// flowTruth is the expected answer for one flow of one query.
type flowTruth struct {
	src, dst  string
	available float64
	latency   time.Duration
	// exactPath, when set, is the node-ID path the answer must follow,
	// and latency is compared too. Rigs whose serving graph is the
	// emulator's own graph (scale, federation) set it. A graph discovered
	// over SNMP names interior nodes its own way and carries no link
	// delays, so there only the endpoints and the bandwidth are compared.
	exactPath []string
}

// queryTruth is the expected answer of one query.
type queryTruth []flowTruth

// groundTruth runs the whole-graph allocation for one query on the
// emulator's graph. exact asks for path equality as well.
func groundTruth(truth *topology.Graph, flows []modeler.Flow, exact bool) (queryTruth, error) {
	reqs := make([]topology.FlowRequest, len(flows))
	for i, f := range flows {
		reqs[i] = topology.FlowRequest{Src: f.Src.String(), Dst: f.Dst.String(), Demand: f.Demand}
	}
	preds, err := truth.FlowAlloc(reqs)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	out := make(queryTruth, len(preds))
	for i, p := range preds {
		out[i] = flowTruth{src: reqs[i].Src, dst: reqs[i].Dst, available: p.Available, latency: p.Latency}
		if exact {
			out[i].exactPath = p.Path
		}
	}
	return out, nil
}

// availTolerance is the relative slack on Available: the wire carries
// floats in shortest round-trip form, so equal numbers compare equal; the
// slack only absorbs the order of additions in progressive filling.
const availTolerance = 1e-9

func (t flowTruth) matchesOne(got modeler.FlowInfo) error {
	if len(got.Path) < 2 || got.Path[0] != t.src || got.Path[len(got.Path)-1] != t.dst {
		return fmt.Errorf("flow %s->%s: path %v does not join the endpoints", t.src, t.dst, got.Path)
	}
	if math.Abs(got.Available-t.available) > availTolerance*math.Max(1, math.Abs(t.available)) {
		return fmt.Errorf("flow %s->%s: available %.6g, ground truth %.6g", t.src, t.dst, got.Available, t.available)
	}
	if t.exactPath != nil {
		if got.Latency != t.latency {
			return fmt.Errorf("flow %s->%s: latency %v, ground truth %v", t.src, t.dst, got.Latency, t.latency)
		}
		if len(got.Path) != len(t.exactPath) {
			return fmt.Errorf("flow %s->%s: path %v, ground truth %v", t.src, t.dst, got.Path, t.exactPath)
		}
		for i := range got.Path {
			if got.Path[i] != t.exactPath[i] {
				return fmt.Errorf("flow %s->%s: path %v, ground truth %v", t.src, t.dst, got.Path, t.exactPath)
			}
		}
	}
	return nil
}

// matches compares a whole answer with the query's truth.
func (q queryTruth) matches(got []modeler.FlowInfo) error {
	if len(got) != len(q) {
		return fmt.Errorf("answer has %d flows, query asked for %d", len(got), len(q))
	}
	for i := range q {
		if err := q[i].matchesOne(got[i]); err != nil {
			return err
		}
	}
	return nil
}

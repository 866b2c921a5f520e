// Package remos is a Go implementation of the Remos network resource
// measurement system (Dinda et al., "The Architecture of the Remos
// System", HPDC 2001).
//
// Remos answers two kinds of application queries:
//
//   - Topology queries: a virtual graph of the network spanning a set of
//     hosts, annotated with link capacities and measured utilization.
//   - Flow queries: the max-min fair bandwidth a set of new flows can
//     expect, optionally predicted into the future with the RPS
//     time-series toolkit.
//
// The public API is the Modeler. A Modeler talks to a Master Collector,
// which composes answers from SNMP Collectors (router/switch MIBs),
// Bridge Collectors (level-2 topology from forwarding databases) and
// Benchmark Collectors (active wide-area probes). Collectors may be local
// objects or remote daemons reached through the ASCII/TCP or XML/HTTP
// protocols. Dial is the one way to a remote daemon: it returns a
// Connection, the Modeler plus the daemon's watch plane and Close.
//
// Quick start against a remote Master Collector:
//
//	m, err := remos.Dial("tcp://master.example.edu:3567")
//	if err != nil { ... }
//	defer m.Close()
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	bw, err := m.AvailableBandwidthContext(ctx, src, dst)
//
// Query failures are classified (ErrNoRoute, ErrUnknownHost,
// ErrCollectorUnavailable, ErrTimeout) and the classes survive both wire
// protocols, so errors.Is works against a remote daemon's failures.
//
// The examples/ directory contains runnable end-to-end scenarios built on
// the in-repository network emulator.
package remos

import (
	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/rps"
	"remos/internal/topology"
)

// Modeler is the Remos API endpoint; see package modeler for details.
type Modeler = modeler.Modeler

// Collector is anything that can answer Remos queries: SNMP, Bridge,
// Benchmark and Master collectors, and the remote protocol clients.
type Collector = collector.Interface

// Query and Result are the collector-level request/response pair.
type (
	Query  = collector.Query
	Result = collector.Result
)

// Graph is the annotated virtual topology returned by topology queries.
type Graph = topology.Graph

// Topology graph element types.
type (
	Node = topology.Node
	Link = topology.Link
)

// Flow-query types.
type (
	Flow            = modeler.Flow
	FlowInfo        = modeler.FlowInfo
	FlowOptions     = modeler.FlowOptions
	TopologyOptions = modeler.TopologyOptions
	ServerRank      = modeler.ServerRank
)

// Prediction is an RPS forecast with per-horizon error variances.
type Prediction = rps.Prediction

// Forecast is a collector-side streaming prediction for one measured
// quantity (link utilization or host load).
type Forecast = collector.Forecast

// HostLoadInfo is the answer to a host load query.
type HostLoadInfo = modeler.HostLoadInfo

// ModelerConfig configures NewModelerConfig.
type ModelerConfig = modeler.Config

// NewModelerConfig builds a Modeler over a local collector (usually a
// Master); for remote collectors use Dial.
func NewModelerConfig(cfg ModelerConfig) *Modeler { return modeler.New(cfg) }

// ParsePredictor resolves an RPS model spec such as "AR(16)", "MEAN",
// "ARIMA(8,1,8)" or "REFIT(AR(16),128)"; the result can be used in
// FlowOptions.Model.
func ParsePredictor(spec string) (rps.Fitter, error) { return rps.ParseFitter(spec) }

// Package serve assembles what a Remos daemon serves: the single-master
// planes over one master, and the wire servers that put any QUERY and
// FLOWS answerer on the network. remosd builds both of its modes through
// it, and so do the tests whose subject is the product as it is served.
package serve

import (
	"fmt"
	"net/netip"
	"time"

	"remos/internal/admission"
	"remos/internal/collector"
	"remos/internal/modeler"
	"remos/internal/obs"
	"remos/internal/proto"
	"remos/internal/rerr"
	"remos/internal/sched"
	"remos/internal/sim"
	"remos/internal/snapshot"
	"remos/internal/watch"
)

// Planes is the single-master serving assembly over one master: the
// snapshot store, the Modeler that answers QUERY and FLOWS from it, the
// poll plane that keeps it warm, and the watch registry that evaluates
// each generation the poll plane makes, all on one clock.
type Planes struct {
	Store  *snapshot.Store
	Answer *modeler.Modeler
	Poll   *sched.Scheduler
	Watch  *watch.Registry
}

// NewPlanes assembles the planes over master. The snapshot plane
// refreshes from master itself — Store.Refresh coalesces concurrent
// walks — and the poll plane polls master into the store, so a covered
// pair's QUERY, FLOWS and WATCH all read the generation its last poll
// made. maxStale and schedInterval must be positive.
func NewPlanes(s sim.Scheduler, master collector.Interface, maxStale, schedInterval time.Duration, reg *obs.Registry) *Planes {
	p := &Planes{Store: snapshot.New(snapshot.Config{Now: s.Now, Obs: reg})}
	p.Answer = modeler.New(modeler.Config{Collector: master, Snapshot: p.Store, MaxStale: maxStale, Obs: reg})
	p.Watch = watch.New(watch.Config{
		Obs: reg, Now: s.Now,
		EnsureTarget:  func(h []netip.Addr) { p.Poll.AddTarget(h) },
		ReleaseTarget: func(h []netip.Addr) { p.Poll.RemoveTarget(h) },
	})
	p.Poll = sched.New(sched.Config{
		Collector: master, Sched: s, Snapshot: p.Store, Obs: reg,
		BaseInterval: schedInterval, MaxInterval: PollCap(maxStale, schedInterval),
		OnApply: func(h []netip.Addr, snap *snapshot.Snapshot) { p.Watch.Evaluate(h, snap.Paths()) },
	})
	return p
}

// Close ends every watch and stops the poll plane.
func (p *Planes) Close() {
	p.Watch.Close(rerr.Tagf(rerr.ErrCollectorUnavailable, "remosd shutting down"))
	p.Poll.Stop()
}

// PollCap is the widest gap the poll plane leaves between two polls of a
// stable target: eight base intervals, narrowed to maxStale, so the
// snapshot generation a covered pair answers from is re-polled before it
// ages past the bound.
func PollCap(maxStale, schedInterval time.Duration) time.Duration {
	return min(8*schedInterval, maxStale)
}

// Answerer answers QUERY and FLOWS: the single-master Modeler, or the
// federation router.
type Answerer interface {
	collector.Interface
	proto.FlowAnswerer
}

// Servers are the wire servers Listen started; HTTPAddr is "" when the
// XML server is off.
type Servers struct {
	ASCIIAddr, HTTPAddr string
	tcp                 *proto.TCPServer
	http                *proto.HTTPServer
}

// Listen puts answer and watch on the ASCII server at asciiAddr and,
// unless httpAddr is "", on the XML server, both behind ctrl (nil: all
// admitted). On error, nothing is left listening.
func Listen(asciiAddr, httpAddr string, answer Answerer, watch *watch.Registry, ctrl *admission.Controller, reg *obs.Registry, traces *obs.Ring) (*Servers, error) {
	srv := &Servers{tcp: &proto.TCPServer{
		Collector: answer, Watch: watch, Flows: answer,
		Admission: ctrl, Obs: reg, Traces: traces,
	}}
	var err error
	if srv.ASCIIAddr, err = srv.tcp.ListenAndServe(asciiAddr); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if httpAddr != "" {
		srv.http = &proto.HTTPServer{
			Collector: answer, Watch: watch, Flows: answer,
			Admission: ctrl, Obs: reg, Traces: traces,
		}
		if srv.HTTPAddr, err = srv.http.ListenAndServe(httpAddr); err != nil {
			srv.tcp.Close()
			return nil, fmt.Errorf("http listen: %w", err)
		}
	}
	return srv, nil
}

// Close stops the XML server, then the ASCII server.
func (s *Servers) Close() {
	if s.http != nil {
		s.http.Close()
	}
	s.tcp.Close()
}

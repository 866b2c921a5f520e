package mib

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remos/internal/netsim"
	"remos/internal/sim"
	"remos/internal/snmp"
)

// under returns the names the table holds below root.
func under(t *snmp.Table, root snmp.OID) []string {
	var out []string
	for i := t.Seek(root); i < t.Len(); i++ {
		name, _ := t.At(i)
		if !name.HasPrefix(root) {
			break
		}
		out = append(out, name.String())
	}
	return out
}

// A layout is an immutable value per topology epoch, so the epoch has to
// move with everything a layout holds: AssignSubnets and ComputeRoutes
// rewrite every address and route without adding a device or a link.
func TestLayoutFollowsRoutesAndAddresses(t *testing.T) {
	n := netsim.New(sim.NewSim())
	a, b := n.AddRouter("a"), n.AddRouter("b")
	n.Connect(a, b, 10e6, time.Millisecond)
	view := NewDeviceView(n, a)
	if got := under(view.Table(), IPRouteDest); len(got) != 0 {
		t.Fatalf("routes before any were computed: %v", got)
	}
	n.AssignSubnets()
	if got := under(view.Table(), IPAdEntIfIndex); len(got) != 1 {
		t.Fatalf("after AssignSubnets the view serves addresses %v, want the one the router was given (%v)", got, a.Addr())
	}
	n.ComputeRoutes()
	if got, want := under(view.Table(), IPRouteDest), len(a.Routes()); len(got) != want || want == 0 {
		t.Fatalf("after ComputeRoutes the view serves routes %v for a router that has %d", got, want)
	}
	// A second assignment moves nothing here, but what the view serves must
	// still be the network's: same answers from a layout built afterwards.
	before := under(view.Table(), IPRouteDest)
	n.AssignSubnets()
	n.ComputeRoutes()
	if after := under(view.Table(), IPRouteDest); !slices.Equal(before, after) {
		t.Fatalf("routes changed across an identical reassignment: %v -> %v", before, after)
	}
}

// rowCheck is a transport that decodes every GetBulk response on its way
// back and reports one whose rows cannot have come from a single layout.
type rowCheck struct {
	inner   snmp.Transport
	columns []snmp.OID

	mu  sync.Mutex
	bad []string
}

func (c *rowCheck) RoundTrip(addr string, req []byte) ([]byte, time.Duration, error) {
	resp, rtt, err := c.inner.RoundTrip(addr, req)
	if err != nil {
		return resp, rtt, err
	}
	q, qerr := snmp.Unmarshal(req)
	m, merr := snmp.Unmarshal(resp)
	if qerr != nil || merr != nil || q.PDU.Type != snmp.GetBulkRequest {
		return resp, rtt, err
	}
	// The walks under test ask for every column in every request, so a
	// row is one varbind per column, and the columns index one table: in
	// one layout a row is the same station in every column, or past the
	// end of every column.
	width := len(q.PDU.VarBinds)
	if width != len(c.columns) {
		return resp, rtt, err
	}
	for row := 0; (row+1)*width <= len(m.PDU.VarBinds); row++ {
		vbs := m.PDU.VarBinds[row*width : (row+1)*width]
		var first snmp.OID
		inside := 0
		for k, vb := range vbs {
			if !vb.Name.HasPrefix(c.columns[k]) {
				continue
			}
			inside++
			suffix := vb.Name[len(c.columns[k]):]
			if first == nil {
				first = suffix
			} else if !slices.Equal(first, suffix) {
				c.note(fmt.Sprintf("row %d names stations %v and %v", row, first, suffix))
			}
		}
		if inside != 0 && inside != width {
			c.note(fmt.Sprintf("row %d is inside %d of %d columns", row, inside, width))
		}
	}
	return resp, rtt, err
}

func (c *rowCheck) note(s string) {
	c.mu.Lock()
	c.bad = append(c.bad, s)
	c.mu.Unlock()
}

// Walkers read a switch's forwarding database while hosts move in and out
// of its broadcast domain: every response must come from one layout, no
// walk may see its agent go backwards, and — under the race detector — a
// layout must be complete before any reader can load it (storing the
// pointer before the table is filled fails here).
func TestWalkBesideRelayout(t *testing.T) {
	n := netsim.New(sim.NewSim())
	sw, near, island := n.AddSwitch("sw"), n.AddSwitch("near"), n.AddSwitch("island")
	n.Connect(sw, near, 1e9, 0)
	for i := 0; i < 40; i++ {
		n.Connect(n.AddHost(hostName(i)), sw, 100e6, 0)
	}
	// The movers start on the island, outside sw's broadcast domain, and
	// hop onto the neighbour switch and back: sw's own ports never change,
	// the stations behind one of them do.
	movers := make([]*netsim.Device, 4)
	for i := range movers {
		movers[i] = n.AddHost(fmt.Sprintf("mover%d", i))
		n.Connect(movers[i], island, 100e6, 0)
	}
	n.AssignSubnets()
	n.ComputeRoutes()
	reg := snmp.NewRegistry()
	AttachAll(n, reg)
	columns := []snmp.OID{Dot1dTpFdbAddress, Dot1dTpFdbPort, Dot1dTpFdbStatus}
	check := &rowCheck{inner: &snmp.InProc{Registry: reg}, columns: columns}
	addr := sw.ManagementAddr().String()

	stop := make(chan struct{})
	var walks atomic.Int32
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := snmp.NewClient(check, "public")
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows := 0
				err := c.BulkWalkColumns(context.Background(), addr, nil, columns, 8,
					func(col int, _ snmp.OID, _ snmp.Value) bool {
						if col == 0 {
							rows++
						}
						return true
					})
				if err == nil && rows < 41 {
					err = fmt.Errorf("walk saw %d stations, the switch never has fewer than 41", rows)
				}
				if err != nil {
					errs <- err
					return
				}
				walks.Add(1)
			}
		}()
	}
	// Move until the walkers have finished some walks beside the moves, or
	// one of them gave up.
	for i := 0; (i < 200 || walks.Load() < 30) && i < 5000 && len(errs) == 0; i++ {
		to := near
		if i/len(movers)%2 == 1 {
			to = island
		}
		n.MoveHost(movers[i%len(movers)], to, 100e6, 0)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, s := range check.bad {
		t.Errorf("a response mixes layouts: %s", s)
	}
}

package overlay

import (
	"math/rand"
	"testing"

	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// TestTapestryUnpublishChargesWalk pins the withdrawal walk's accounting: the
// cost the adapter reports for Unpublish is exactly what the network spent
// on it, and the walk is not free.
func TestTapestryUnpublishChargesWalk(t *testing.T) {
	b, err := Lookup("tapestry")
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 32
	space := metric.NewRing(8 * nodes)
	net := netsim.New(space)
	p, err := b.New(net, Config{Spec: confSpec, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(5)).Perm(space.Size())
	addrs := make([]netsim.Addr, nodes)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	handles, _, err := p.Build(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish(handles[0], "withdrawn"); err != nil {
		t.Fatal(err)
	}
	before := net.TotalMessages()
	c, err := p.Unpublish(handles[0], "withdrawn")
	if err != nil {
		t.Fatal(err)
	}
	spent := net.TotalMessages() - before
	if got := c.Messages(); got <= 0 || int64(got) != spent {
		t.Errorf("Unpublish reported %d messages, network spent %d", got, spent)
	}
}

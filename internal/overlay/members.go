package overlay

import (
	"errors"
	"sync"

	"tapestry/internal/netsim"
)

// members is the shared live-member bookkeeping every adapter embeds: an
// insertion-ordered list (so Handles() is deterministic for identically
// seeded runs) plus an address index, both guarded by mu so Handles()
// readers are safe against concurrent membership churn. opMu is the
// adapters' membership-operation lock: Join/Build consume the adapter's RNG
// and must not interleave, matching the serialization the facade's old
// AddNode lock provided. Adapters whose departures mutate shared protocol
// state a concurrent join walks through (Tapestry: a Leave/Fail can kill the
// surrogate an in-flight multicast is traversing) serialize Leave/Fail on the
// same lock.
type members struct {
	opMu sync.Mutex

	mu     sync.RWMutex
	list   []Handle
	byAddr map[netsim.Addr]Handle
}

// checkEmptyBuild enforces the Build-exactly-once contract.
func (m *members) checkEmptyBuild() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.list) != 0 {
		return errors.New("overlay: Build called on a populated protocol")
	}
	return nil
}

func (m *members) add(h Handle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.byAddr == nil {
		m.byAddr = make(map[netsim.Addr]Handle)
	}
	m.list = append(m.list, h)
	m.byAddr[h.Addr()] = h
}

func (m *members) remove(h Handle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.byAddr, h.Addr())
	for i, x := range m.list {
		if x.Addr() == h.Addr() {
			m.list = append(m.list[:i], m.list[i+1:]...)
			return
		}
	}
}

// at returns the live member at an address, or nil.
func (m *members) at(a netsim.Addr) Handle {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.byAddr[a]
}

// labelAt renders the identifier of the live member at an address ("" when
// none) — used to fill Result.ServerID.
func (m *members) labelAt(a netsim.Addr) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if h := m.byAddr[a]; h != nil {
		return h.Label()
	}
	return ""
}

// snapshot returns a copy of the live members in insertion order.
func (m *members) snapshot() []Handle {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Handle(nil), m.list...)
}

// Handles returns the current live members in insertion order.
func (m *members) Handles() []Handle { return m.snapshot() }

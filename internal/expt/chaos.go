package expt

import (
	"fmt"

	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
	"tapestry/internal/scenario"
	"tapestry/internal/workload"
)

// E-chaos: the adversarial scenario suite. Where E-faceoff applies
// independent Poisson churn and E-nines applies crash-only churn, this
// experiment replays the named scenario.Scenario timelines — correlated
// region blackouts, region-aligned partitions that heal, seeded link loss
// and duplication ramps, flash crowds with join stampedes — through the
// scenario.Driver against every selected overlay protocol, on the virtual
// clock. Each cell is one named scenario; every configuration inside it
// replays the identical seeded timeline, so the rows are a controlled
// comparison of how each protocol (and each Tapestry replication setting)
// degrades and recovers, phase by phase.
//
// Determinism: cells are serial inside; the driver draws every binding from
// labeled streams of the cell seed, so output is byte-identical for any
// -workers value (pinned by CI).

// chaosService matches the E-nines per-message receiver service time so the
// virtual-time regimes are comparable across the two experiments.
const chaosService = 0.0005

// chaosConfig is one column of the comparison: a registered overlay
// protocol plus, for Tapestry, the availability knobs. The r=1,k=1 /
// r=4,k=3 pair brackets the replication tier: the acceptance test pins that
// the replicated configuration buys strictly more availability under the
// healing-partition scenario.
type chaosConfig struct {
	label    string
	protocol string
	roots    int // salted roots r (Tapestry only)
	replicas int // replica servers k (Tapestry only)
}

// chaosConfigs resolves the protocol selection: nil/empty means every
// registered protocol (with both Tapestry replication settings), a
// non-empty list keeps only the named protocols.
func chaosConfigs(selected []string) []chaosConfig {
	all := []chaosConfig{
		{"tapestry r=1 k=1", "tapestry", 1, 1},
		{"tapestry r=4 k=3", "tapestry", 4, 3},
	}
	for _, b := range overlay.Builders() {
		if b.Name == "tapestry" {
			continue
		}
		all = append(all, chaosConfig{label: b.Name, protocol: b.Name})
	}
	if len(selected) == 0 {
		return all
	}
	want := make(map[string]bool, len(selected))
	for _, s := range selected {
		want[s] = true
	}
	var out []chaosConfig
	for _, c := range all {
		if want[c.protocol] {
			out = append(out, c)
		}
	}
	return out
}

// ValidateScenarios rejects unknown scenario names up front — a typo'd
// -chaos-scenario flag must not cost a suite run before panicking mid-cell.
func ValidateScenarios(names []string) error {
	for _, n := range names {
		if _, err := scenario.Named(n, scenario.DefaultSpec()); err != nil {
			return err
		}
	}
	return nil
}

// chaosRow is one (configuration, phase) aggregate, returned for the
// acceptance test.
type chaosRow struct {
	config, phase  string
	queries, found int
}

// runChaosCell replays one named scenario through every selected
// configuration and appends one row per (configuration, phase).
func runChaosCell(seed int64, t *Table, name string, n, objects, queries, stampede int, protocols []string) []chaosRow {
	// The join stampede plus a little headroom is the whole reserve demand:
	// restores rejoin at their original addresses, and the named suite has
	// no background Churn events.
	reserveN := stampede + 8
	// A transit-stub topology gives the scenarios their correlated geometry:
	// RegionBlackout kills a stub domain, Partition cuts region-aligned.
	space := metric.NewTransitStub(
		metric.ScaledTransitStub(4*(n+reserveN)), subRNG(seed, "topology"))
	all := pickAddrs(space, n+reserveN, subRNG(seed, "addrs"))
	base, reserve := all[:n], all[n:]
	place := workload.UniformPlacement(objects, 1, n, subRNG(seed, "place"))
	bseed := subSeed(seed, "build")
	spec := scenario.Spec{Queries: queries, Stampede: stampede}

	var rows []chaosRow
	for _, cc := range chaosConfigs(protocols) {
		ocfg := overlay.Config{Seed: bseed, Static: true}
		if cc.protocol == "tapestry" {
			tc := defaultTapConfig()
			tc.Seed = bseed
			tc.RootSetSize = cc.roots
			tc.Replicas = cc.replicas
			// Pointers must survive the few scenario Maintain passes:
			// the decay under study is fault loss, not TTL expiry.
			tc.PointerTTL = 4
			ocfg.Core = &tc
		}
		env := buildOverlay(cc.protocol, space, base, ocfg)
		for i := range place.Names {
			env.publish(place.Servers[i][0], place.Names[i])
		}

		// Setup ran in direct-call mode; the engine attaches now and the
		// whole scenario replays as one virtual-time run.
		e := netsim.NewEngine(subSeed(seed, "engine"))
		e.SetServiceTime(chaosService)
		env.proto.Net().AttachEngine(e)

		s, err := scenario.Named(name, spec)
		if err != nil {
			panic(fmt.Sprintf("chaos: %v", err))
		}
		drv, err := scenario.NewDriver(env.proto, env.nodes, scenario.Config{
			Seed:      subSeed(seed, "drive"),
			Mode:      scenario.EventDriven,
			Placement: place,
			Reserve:   reserve,
		})
		if err != nil {
			panic(fmt.Sprintf("chaos: %s: %v", cc.label, err))
		}
		reports, err := drv.Run(s)
		if err != nil {
			panic(fmt.Sprintf("chaos: %s replay %s: %v", cc.label, name, err))
		}
		// The named scenarios end with faults cleared, but guarantee it:
		// a leftover mask must not leak into a later experiment sharing the
		// process (they don't share networks, but cheap insurance is cheap).
		env.proto.Net().ClearFaults()

		for _, r := range reports {
			t.AddRow(n, name, cc.label, r.Phase, r.Live,
				r.Joins+r.Restores, r.Leaves+r.Crashes, r.Declined, r.Failed,
				fmt.Sprintf("%d/%d", r.Found, r.Queries),
				r.MeanHops, r.MeanStretch, r.MaintainMsgs,
				r.Blocked, r.Lost, r.Duplicated)
			rows = append(rows, chaosRow{
				config: cc.label, phase: r.Phase,
				queries: r.Queries, found: r.Found,
			})
		}
	}
	return rows
}

// chaosDef (E-chaos) replays the named scenario suite across the overlay
// registry. One cell per scenario: the configurations of a cell must share
// one derived seed (identical timeline), so the configuration loop is
// serial inside it.
func chaosDef(n, objects, queries, stampede int, scenarios, protocols []string) Def {
	if len(scenarios) == 0 {
		scenarios = scenario.Names()
	}
	d := Def{
		Name: "Chaos",
		Table: Table{
			Title: "E-chaos: named adversarial scenarios (blackout, partition, lossy links, flash crowd) across overlay protocols",
			Note: "each cell replays one seeded scenario.Driver timeline identically per configuration; " +
				"caps-gated (declined = operations the protocol refuses honestly, failed = errored under fire); " +
				"located = found/issued per phase; blocked/lost/dup = netsim fault verdicts in the phase window",
			Header: []string{"n", "scenario", "config", "phase", "live", "joins", "down",
				"declined", "failed", "located", "hops", "stretch", "maint msgs",
				"blocked", "lost", "dup"},
		},
	}
	for _, name := range scenarios {
		name := name
		d.Cells = append(d.Cells, Cell{Label: name, Run: func(seed int64, t *Table) {
			runChaosCell(seed, t, name, n, objects, queries, stampede, protocols)
		}})
	}
	return d
}

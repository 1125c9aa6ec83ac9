package config

// The wire-format machine description: MachineSpec is the JSON schema
// the clusterd service accepts in job submissions, and ParseMachine is
// the single resolver for "cluster description strings" (Table 1
// preset counts or ParseClusterSpecs grammar) shared by clustersim's
// -clusters flag and the service. Both the CLI's local mode and its
// -remote mode build their Config through MachineSpec.Build, so a run
// submitted over HTTP is constructed exactly like the local one — the
// foundation of the bit-identical local/remote results guarantee.

import (
	"fmt"
	"strings"

	"clustervp/internal/interconnect"
)

// ParseMachine resolves a cluster description: "1", "2" or "4" select
// the paper's Table 1 presets, anything else is parsed as a cluster
// spec string building an arbitrary (possibly asymmetric) machine.
func ParseMachine(clusters string) (Config, error) {
	switch strings.TrimSpace(clusters) {
	case "1":
		return Preset(1), nil
	case "2":
		return Preset(2), nil
	case "4":
		return Preset(4), nil
	}
	specs, err := ParseClusterSpecs(clusters)
	if err != nil {
		return Config{}, err
	}
	return FromSpecs(specs...), nil
}

// MachineSpec is the JSON machine description of the simulation
// service: every field mirrors one clustersim flag, enums ride as
// their string names, and a zero value means "keep the preset
// default", so an empty spec is the paper's 4-cluster machine. It
// deliberately carries no FU-level detail beyond the spec-string
// grammar — jobs describe machines the way users do on the command
// line.
type MachineSpec struct {
	// Clusters is "1", "2", "4" (Table 1 presets) or a cluster spec
	// string like "4w16q:2w8q:2w8q"; empty means "4".
	Clusters string `json:"clusters,omitempty"`
	// VP, Steering and Topology are enum names as printed by the
	// corresponding String methods ("stride", "vpb", "mesh", ...).
	VP       string `json:"vp,omitempty"`
	Steering string `json:"steering,omitempty"`
	Topology string `json:"topology,omitempty"`
	// CommLatency and CommPaths configure the interconnect (§4); 0
	// keeps the defaults (1 cycle, unbounded paths).
	CommLatency int `json:"comm_latency,omitempty"`
	CommPaths   int `json:"comm_paths,omitempty"`
	// VPTableEntries sizes the value-prediction table (0 = 128K).
	VPTableEntries int `json:"vp_table_entries,omitempty"`
	// RenameCycles is the rename/steer stage depth (0 = 1).
	RenameCycles int `json:"rename_cycles,omitempty"`
	// MaxCycles aborts runaway simulations (0 = the default budget).
	MaxCycles int64 `json:"max_cycles,omitempty"`
}

// Build resolves the spec into a validated Config. Errors name the
// offending field the way the CLI errors name flags.
func (m MachineSpec) Build() (Config, error) {
	// Zero means "keep the default", so negative knobs can never mean
	// anything: reject them here — Config.Validate does not see
	// MaxCycles, and a job admitted with a negative budget could only
	// ever fail at simulation time.
	if m.CommLatency < 0 || m.CommPaths < 0 || m.VPTableEntries < 0 ||
		m.RenameCycles < 0 || m.MaxCycles < 0 {
		return Config{}, fmt.Errorf("config: machine knobs must be >= 0 "+
			"(comm_latency=%d comm_paths=%d vp_table_entries=%d rename_cycles=%d max_cycles=%d)",
			m.CommLatency, m.CommPaths, m.VPTableEntries, m.RenameCycles, m.MaxCycles)
	}
	if m.RenameCycles > MaxRenameCycles {
		return Config{}, fmt.Errorf("config: rename_cycles %d exceeds %d", m.RenameCycles, MaxRenameCycles)
	}
	clusters := m.Clusters
	if strings.TrimSpace(clusters) == "" {
		clusters = "4"
	}
	cfg, err := ParseMachine(clusters)
	if err != nil {
		return Config{}, fmt.Errorf("clusters: %w", err)
	}
	if m.VP != "" {
		kind, err := ParseVP(strings.ToLower(m.VP))
		if err != nil {
			return Config{}, fmt.Errorf("vp: %w", err)
		}
		cfg = cfg.WithVP(kind)
	}
	if m.Steering != "" {
		kind, err := ParseSteering(strings.ToLower(m.Steering))
		if err != nil {
			return Config{}, fmt.Errorf("steering: %w", err)
		}
		cfg = cfg.WithSteering(kind)
	}
	if m.Topology != "" {
		kind, err := interconnect.ParseKind(strings.ToLower(m.Topology))
		if err != nil {
			return Config{}, fmt.Errorf("topology: %w", err)
		}
		cfg = cfg.WithTopology(kind)
	}
	if m.CommLatency != 0 {
		cfg.CommLatency = m.CommLatency
	}
	if m.CommPaths != 0 {
		cfg.CommPaths = m.CommPaths
	}
	if m.VPTableEntries != 0 {
		cfg.VPTableEntries = m.VPTableEntries
	}
	if m.RenameCycles != 0 {
		cfg.RenameCycles = m.RenameCycles
	}
	if m.MaxCycles != 0 {
		cfg.MaxCycles = m.MaxCycles
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

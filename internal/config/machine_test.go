package config

// MachineSpec/ParseMachine tests: the JSON machine schema must build
// exactly the same Config the CLI flag path builds, field for field —
// the local/remote bit-identical guarantee starts here.

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"clustervp/internal/interconnect"
)

func TestParseMachinePresets(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		got, err := ParseMachine(strings.TrimSpace(string(rune('0' + n))))
		if err != nil {
			t.Fatalf("ParseMachine(%d): %v", n, err)
		}
		if !reflect.DeepEqual(got, Preset(n)) {
			t.Errorf("ParseMachine(%d) != Preset(%d)", n, n)
		}
	}
	if _, err := ParseMachine("3"); err == nil {
		t.Error("ParseMachine(3) accepted a non-preset count as a spec string")
	}
	got, err := ParseMachine("4w16q:2w8qx2")
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := ParseClusterSpecs("4w16q:2w8qx2")
	if !reflect.DeepEqual(got, FromSpecs(specs...)) {
		t.Error("ParseMachine(spec string) != FromSpecs(ParseClusterSpecs(...))")
	}
}

func TestMachineSpecDefaultsToPreset4(t *testing.T) {
	cfg, err := MachineSpec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, Preset(4)) {
		t.Errorf("empty MachineSpec built %+v, want Preset(4)", cfg)
	}
}

// TestMachineSpecMatchesBuilderChain: a fully-populated spec must equal
// the equivalent With* builder chain, which is what clustersim used to
// construct inline.
func TestMachineSpecMatchesBuilderChain(t *testing.T) {
	spec := MachineSpec{
		Clusters:       "2",
		VP:             "stride",
		Steering:       "vpb",
		Topology:       "ring",
		CommLatency:    2,
		CommPaths:      1,
		VPTableEntries: 4096,
		RenameCycles:   2,
		MaxCycles:      1 << 20,
	}
	got, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := interconnect.ParseKind("ring")
	if err != nil {
		t.Fatal(err)
	}
	want := Preset(2).
		WithComm(2, 1).
		WithVPTable(4096).
		WithVP(VPStride).
		WithSteering(SteerVPB).
		WithTopology(topo)
	want.RenameCycles = 2
	want.MaxCycles = 1 << 20
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Build mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestMachineSpecJSONRoundTrip: the schema survives JSON and omits the
// zero-valued knobs so wire payloads stay minimal.
func TestMachineSpecJSONRoundTrip(t *testing.T) {
	in := MachineSpec{Clusters: "4w16q:2w8qx2", VP: "stride", Steering: "vpb"}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"comm_latency", "max_cycles", "topology", "rename_cycles"} {
		if strings.Contains(string(data), absent) {
			t.Errorf("zero-valued field %q serialized: %s", absent, data)
		}
	}
	var out MachineSpec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip mutated the spec: %+v -> %+v", in, out)
	}
	a, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := out.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("round-tripped spec built a different Config")
	}
}

// TestMachineSpecErrorsNameTheField pins the error attribution the
// service surfaces to HTTP clients.
func TestMachineSpecErrorsNameTheField(t *testing.T) {
	cases := []struct {
		spec MachineSpec
		want string
	}{
		{MachineSpec{Clusters: "zebra"}, "clusters:"},
		{MachineSpec{VP: "psychic"}, "vp:"},
		{MachineSpec{Steering: "sideways"}, "steering:"},
		{MachineSpec{Topology: "donut"}, "topology:"},
		{MachineSpec{VPTableEntries: 3, VP: "stride"}, "power of two"},
		// Negative knobs can never mean anything (zero already means
		// "default") and must be rejected at Build time — a job admitted
		// with max_cycles -1 could only ever fail at simulation time.
		{MachineSpec{MaxCycles: -1}, ">= 0"},
		{MachineSpec{CommLatency: -1}, ">= 0"},
		{MachineSpec{CommPaths: -2}, ">= 0"},
		{MachineSpec{RenameCycles: -1}, ">= 0"},
		{MachineSpec{VPTableEntries: -8}, ">= 0"},
		// A stage deep enough never dispatches, and the watchdog, which
		// needs an instruction in the ROB, cannot stop it.
		{MachineSpec{RenameCycles: 1 << 40}, "rename_cycles"},
		{MachineSpec{RenameCycles: MaxRenameCycles + 1}, "rename_cycles"},
		// A copy slower than the deadlock watchdog's window can only
		// end the run in a deadlock error.
		{MachineSpec{CommLatency: 100030}, "comm latency"},
		{MachineSpec{Clusters: "4w32q:2w16qb100"}, "bypass latency"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Build()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Build(%+v) error = %v, want mention of %q", tc.spec, err, tc.want)
		}
	}
}

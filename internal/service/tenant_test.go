package service

// Tenant-model unit tests: tenants-file parsing and validation,
// priority clamping, and the quota admission arithmetic.

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseTenants(t *testing.T) {
	good := `{"tenants": [
		{"name": "alice", "key": "alice-key-0001", "max_queued": 8, "max_in_flight": 16, "max_priority": 5},
		{"name": "bob", "key": "bob-key-0001"}
	]}`
	ts, err := ParseTenants([]byte(good + "\n\t "))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Name != "alice" || ts[0].MaxQueued != 8 || ts[1].MaxInFlight != 0 {
		t.Fatalf("parsed %+v", ts)
	}

	bad := []struct {
		name, body, wantErr string
	}{
		{"not json", `nope`, "tenants file"},
		{"empty list", `{"tenants": []}`, "no tenants"},
		{"no name", `{"tenants": [{"key": "long-enough-key"}]}`, "no name"},
		{"reserved name", `{"tenants": [{"name": "anonymous", "key": "long-enough-key"}]}`, "reserved"},
		{"dup name", `{"tenants": [{"name": "a", "key": "key-aaaaaaa"}, {"name": "a", "key": "key-bbbbbbb"}]}`, "duplicate"},
		{"short key", `{"tenants": [{"name": "a", "key": "short"}]}`, "at least 8"},
		{"dup key", `{"tenants": [{"name": "a", "key": "key-aaaaaaa"}, {"name": "b", "key": "key-aaaaaaa"}]}`, "already used"},
		{"negative quota", `{"tenants": [{"name": "a", "key": "key-aaaaaaa", "max_queued": -1}]}`, ">= 0"},
		{"unknown field", `{"tenants": [{"name": "a", "key": "key-aaaaaaa", "max_qeued": 3}]}`, "unknown field"},
		{"trailing garbage", `{"tenants": [{"name": "a", "key": "key-aaaaaaa"}]} garbage`, "after the JSON value"},
		{"second object", `{"tenants": [{"name": "a", "key": "key-aaaaaaa"}]} {"tenants": []}`, "a second JSON value"},
	}
	for _, tc := range bad {
		if _, err := ParseTenants([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestLoadTenantsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants": [{"name": "a", "key": "key-aaaaaaa"}]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	ts, err := LoadTenantsFile(path)
	if err != nil || len(ts) != 1 {
		t.Fatalf("LoadTenantsFile = %+v, %v", ts, err)
	}
	// A bad file names itself in the error.
	if err := os.WriteFile(path, []byte(`{}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTenantsFile(path); err == nil || !strings.Contains(err.Error(), "tenants.json") {
		t.Errorf("bad file err = %v, want the path named", err)
	}
	if _, err := LoadTenantsFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded without error")
	}
}

func TestClampPriority(t *testing.T) {
	capped := &tenantState{cfg: Tenant{MaxPriority: 5}}
	uncapped := &tenantState{}
	for _, tc := range []struct {
		t        *tenantState
		in, want int
	}{
		{capped, 3, 3}, {capped, 5, 5}, {capped, 9, 5}, {capped, 0, 0},
		{uncapped, 9, 9}, {uncapped, 0, 0},
	} {
		if got := tc.t.clampPriority(tc.in); got != tc.want {
			t.Errorf("clampPriority(%d) with ceiling %d = %d, want %d",
				tc.in, tc.t.cfg.MaxPriority, got, tc.want)
		}
	}
}

func TestTenantAdmitLocked(t *testing.T) {
	ts := &tenantState{cfg: Tenant{MaxQueued: 2, MaxInFlight: 3}}
	ts.queued, ts.running = 1, 1
	if _, _, ok := ts.admitLocked(1); !ok {
		t.Error("1 queued of 2 rejected one more job")
	}
	if quota, limit, ok := ts.admitLocked(2); ok || quota != "max_queued" || limit != 2 {
		t.Errorf("admit(2) = %q/%d/%v, want max_queued/2 rejection", quota, limit, ok)
	}
	ts.running = 2 // queued+running = 3 = MaxInFlight
	if quota, _, ok := ts.admitLocked(1); ok || quota != "max_in_flight" {
		t.Errorf("admit at in-flight bound = %q/%v, want max_in_flight rejection", quota, ok)
	}
	// Zero limits mean unlimited.
	free := &tenantState{}
	free.queued, free.running = 1000, 1000
	if _, _, ok := free.admitLocked(1000); !ok {
		t.Error("unlimited tenant rejected an admission")
	}
}

// FuzzParseTenants: parsing never panics; every accepted file declares
// at least one tenant, with unique names and keys, keys of at least 8
// characters, quotas >= 0 and no reserved name; and an accepted file
// with bytes other than whitespace after it is rejected. Run it with
//
//	go test -fuzz=FuzzParseTenants ./internal/service
//
// The seed corpus in testdata/fuzz/FuzzParseTenants covers a valid
// file with and without a trailing newline, a second object, trailing
// garbage, duplicate names and keys, a short key, a negative quota, an
// unknown field and the reserved name.
func FuzzParseTenants(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ParseTenants(data)
		if err != nil {
			return
		}
		if len(ts) == 0 {
			t.Fatalf("%q accepted with no tenants", data)
		}
		names, keys := map[string]bool{}, map[string]bool{}
		for _, tn := range ts {
			switch {
			case tn.Name == "" || tn.Name == anonymousTenant || names[tn.Name]:
				t.Fatalf("%q accepted with tenant name %q", data, tn.Name)
			case len(tn.Key) < 8 || keys[tn.Key]:
				t.Fatalf("%q accepted with key %q", data, tn.Key)
			case tn.MaxQueued < 0 || tn.MaxInFlight < 0 || tn.MaxPriority < 0:
				t.Fatalf("%q accepted with a negative quota: %+v", data, tn)
			}
			names[tn.Name], keys[tn.Key] = true, true
		}
		for _, tail := range []string{"x", "{}", "0", string(data)} {
			if _, err := ParseTenants(append(slices.Clip(data), "\n"+tail...)); err == nil {
				t.Fatalf("%q accepted with %q after it", data, tail)
			}
		}
	})
}
